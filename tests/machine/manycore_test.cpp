// Multi-core machine tests: the declarative MachineDesc build path, the
// conservative-quantum parallel engine behind it, and the two promises
// the redesign makes —
//
//   1. determinism: stats and traces are byte-identical no matter how
//      many host workers advance the cores, and
//   2. compatibility: a single-core machine behaves exactly like one
//      processor stepped by a hand-wired CoSimEngine.
//
// Also the home of the two-core FSL pipeline golden trace. Regenerate
// with:
//
//   MBCOSIM_REGEN_GOLDEN=1 ./tests/mbcosim_tests --gtest_filter='ManyCore.*'
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cordic/cordic_reference.hpp"
#include "apps/machine_peripherals.hpp"
#include "apps/matmul/matmul_app.hpp"
#include "asm/assembler.hpp"
#include "core/manycore.hpp"
#include "fault/fault_plan.hpp"
#include "iss/memory.hpp"
#include "machine/machine_desc.hpp"
#include "obs/jsonl_sink.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::sim {
namespace {

namespace cordic = mbcosim::apps::cordic;

// ------------------------------------------------- two-core FSL pipeline

constexpr const char* kProducerProgram = R"(
start:
  la r21, data
  li r29, 16              # 4 words
  addk r10, r0, r0
loop:
  lw r3, r21, r10
  put r3, rfsl2
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, loop
  halt
data:
  .word 0x00000011
  .word 0x00000022
  .word 0x00000033
  .word 0x00000044
)";

constexpr const char* kConsumerProgram = R"(
start:
  la r28, results
  li r29, 16
  addk r10, r0, r0
loop:
  get r3, rfsl1
  sw r3, r28, r10
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, loop
  halt
results: .space 16
)";

machine::MachineDesc two_core_pipeline() {
  machine::MachineDesc desc;
  machine::CoreDesc producer;
  producer.name = "producer";
  producer.program = kProducerProgram;
  machine::CoreDesc consumer;
  consumer.name = "consumer";
  consumer.program = kConsumerProgram;
  desc.cores = {producer, consumer};
  desc.links = {{"producer", 2, "consumer", 1}};
  desc.quantum = 16;  // several rounds, with cross-quantum blocking
  return desc;
}

/// Build the two-core pipeline with one string-backed JSONL sink per
/// core, run it to completion, and return the concatenated traces
/// (producer first) — the golden-trace payload.
std::string run_traced_pipeline(std::vector<Word>* results = nullptr) {
  auto built = SimSystem::Builder().machine(two_core_pipeline()).build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  std::ostringstream producer_trace;
  std::ostringstream consumer_trace;
  system.trace_bus(0).add_sink(
      std::make_unique<obs::JsonlSink>(producer_trace));
  system.trace_bus(1).add_sink(
      std::make_unique<obs::JsonlSink>(consumer_trace));

  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  if (results != nullptr) {
    for (u32 i = 0; i < 4; ++i) {
      results->push_back(system.word_on(1, "results", i));
    }
  }
  return producer_trace.str() + consumer_trace.str();
}

TEST(ManyCore, TwoCorePipelineDeliversWords) {
  std::vector<Word> results;
  const std::string trace = run_traced_pipeline(&results);
  ASSERT_FALSE(trace.empty());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], 0x11u);
  EXPECT_EQ(results[1], 0x22u);
  EXPECT_EQ(results[2], 0x33u);
  EXPECT_EQ(results[3], 0x44u);
}

TEST(ManyCore, MachineAccessorsDescribeTheTopology) {
  auto built = SimSystem::Builder().machine(two_core_pipeline()).build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  EXPECT_EQ(system.core_count(), 2u);
  EXPECT_EQ(system.core_name(0), "producer");
  EXPECT_EQ(system.core_name(1), "consumer");
  ASSERT_NE(system.machine_engine(), nullptr);
  EXPECT_EQ(system.machine_desc().links.size(), 1u);

  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  EXPECT_EQ(system.machine_engine()->link_words(), 4u);
  // Per-core stats split the machine aggregate.
  const core::CoSimStats total = system.stats();
  const core::CoSimStats producer = system.core_stats(0);
  const core::CoSimStats consumer = system.core_stats(1);
  EXPECT_EQ(total.instructions,
            producer.instructions + consumer.instructions);
  EXPECT_GT(consumer.fsl_stall_cycles, 0u);
}

TEST(ManyCore, TwoCorePipelineMatchesGoldenTrace) {
  const std::string golden_path =
      std::string(MBCOSIM_TEST_DATA_DIR) + "/machine_trace_golden.jsonl";
  const std::string trace = run_traced_pipeline();
  ASSERT_FALSE(trace.empty());

  if (std::getenv("MBCOSIM_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << trace;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with MBCOSIM_REGEN_GOLDEN=1)";
  std::stringstream golden;
  golden << in.rdbuf();

  std::istringstream got_stream(trace);
  std::istringstream want_stream(golden.str());
  std::string got;
  std::string want;
  std::size_t line = 0;
  while (std::getline(want_stream, want)) {
    ++line;
    ASSERT_TRUE(std::getline(got_stream, got))
        << "trace ends early at line " << line;
    ASSERT_EQ(got, want) << "first divergence at line " << line;
  }
  EXPECT_FALSE(std::getline(got_stream, got))
      << "trace has extra lines after line " << line;
}

TEST(ManyCore, RerunsAreByteIdentical) {
  EXPECT_EQ(run_traced_pipeline(), run_traced_pipeline());
}

// ------------------------------------------------------ CORDIC mini farm

// Scaled-down cordic_farm.json (examples/machines/): feeder -> worker
// (4-PE CORDIC pipeline) -> collector, four items in one set, one pass.
constexpr i32 kFarmX[4] = {0x01000000, 0x02000000, 0x01800000, 0x04000000};
constexpr i32 kFarmY[4] = {0x00800000, 0x03000000, 0x00c00000, 0x01000000};

constexpr const char* kFarmFeeder = R"(
start:
  la r21, data_x
  la r22, data_y
  li r29, 16
  addk r10, r0, r0
item_loop:
  lw r3, r21, r10
  put r3, rfsl1
  lw r4, r22, r10
  put r4, rfsl1
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, item_loop
  halt
data_x:
  .word 0x01000000
  .word 0x02000000
  .word 0x01800000
  .word 0x04000000
data_y:
  .word 0x00800000
  .word 0x03000000
  .word 0x00c00000
  .word 0x01000000
)";

constexpr const char* kFarmWorker = R"(
start:
  cput r0, rfsl0          # control word: s0 = 0, single pass
  li r5, 4
send_loop:
  get r3, rfsl1
  put r3, rfsl0
  get r3, rfsl1
  put r3, rfsl0
  put r0, rfsl0           # Z = 0
  addik r5, r5, -1
  bnei r5, send_loop
  li r5, 4
recv_loop:
  get r3, rfsl0           # X out (discarded)
  get r3, rfsl0           # Y residue (discarded)
  get r3, rfsl0           # Z = quotient
  put r3, rfsl2
  addik r5, r5, -1
  bnei r5, recv_loop
  halt
)";

constexpr const char* kFarmCollector = R"(
start:
  la r28, results
  li r29, 16
  addk r10, r0, r0
store_loop:
  get r3, rfsl1
  sw r3, r28, r10
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, store_loop
  halt
results: .space 16
)";

machine::MachineDesc mini_farm() {
  machine::MachineDesc desc;
  machine::CoreDesc feeder;
  feeder.name = "feeder";
  feeder.program = kFarmFeeder;
  machine::CoreDesc worker;
  worker.name = "worker";
  worker.program = kFarmWorker;
  machine::CoreDesc collector;
  collector.name = "collector";
  collector.program = kFarmCollector;
  desc.cores = {feeder, worker, collector};
  desc.links = {{"feeder", 1, "worker", 1}, {"worker", 2, "collector", 1}};
  machine::PeripheralDesc pipeline;
  pipeline.core = "worker";
  pipeline.type = "cordic";
  pipeline.channel = 0;
  pipeline.params["num_pes"] = 4;
  desc.peripherals = {pipeline};
  desc.quantum = 16;
  return desc;
}

struct FarmRun {
  std::vector<std::string> traces;  ///< one JSONL stream per core
  core::CoSimStats stats;
  u64 link_words = 0;
  std::vector<Word> results;
};

FarmRun run_farm(unsigned workers) {
  apps::register_machine_peripherals();
  auto built =
      SimSystem::Builder().machine(mini_farm()).workers(workers).build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  std::vector<std::unique_ptr<std::ostringstream>> streams;
  for (std::size_t i = 0; i < system.core_count(); ++i) {
    streams.push_back(std::make_unique<std::ostringstream>());
    system.trace_bus(i).add_sink(
        std::make_unique<obs::JsonlSink>(*streams.back()));
  }

  EXPECT_EQ(system.run(), core::StopReason::kHalted);

  FarmRun run;
  for (const auto& stream : streams) run.traces.push_back(stream->str());
  run.stats = system.stats();
  run.link_words = system.machine_engine()->link_words();
  for (u32 i = 0; i < 4; ++i) {
    run.results.push_back(system.word_on(2, "results", i));
  }
  return run;
}

TEST(ManyCore, FarmQuotientsMatchTheBitExactReference) {
  const FarmRun run = run_farm(1);
  ASSERT_EQ(run.results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    cordic::CordicState state;
    state.x = kFarmX[i];
    state.y = kFarmY[i];
    const i32 expected = cordic::cordic_iterate(state, 0, 4).z;
    EXPECT_EQ(static_cast<i32>(run.results[i]), expected) << "item " << i;
  }
  // 8 words feeder -> worker, 4 quotients worker -> collector.
  EXPECT_EQ(run.link_words, 12u);
}

TEST(ManyCore, ResultsAreIndependentOfWorkerCount) {
  const FarmRun baseline = run_farm(1);
  for (const unsigned workers : {2u, 4u}) {
    const FarmRun run = run_farm(workers);
    EXPECT_EQ(run.results, baseline.results) << workers << " workers";
    EXPECT_EQ(run.link_words, baseline.link_words) << workers << " workers";
    EXPECT_EQ(run.stats.cycles, baseline.stats.cycles)
        << workers << " workers";
    EXPECT_EQ(run.stats.instructions, baseline.stats.instructions)
        << workers << " workers";
    EXPECT_EQ(run.stats.fsl_stall_cycles, baseline.stats.fsl_stall_cycles)
        << workers << " workers";
    ASSERT_EQ(run.traces.size(), baseline.traces.size());
    for (std::size_t i = 0; i < run.traces.size(); ++i) {
      EXPECT_EQ(run.traces[i], baseline.traces[i])
          << workers << " workers, core " << i << " trace diverged";
    }
  }
}

// ------------------------------------------------------ single-core machine

constexpr const char* kShimProgram = R"(
start:
  li r3, 10
  addk r4, r0, r0
loop:
  addk r4, r4, r3
  addik r3, r3, -1
  bnei r3, loop
  la r5, result
  swi r4, r5, 0
  halt
result: .space 4
)";

TEST(ManyCore, SingleCoreMachineMatchesTheLegacyBuilder) {
  // One processor with its memory and FIFOs, stepped by a hand-wired
  // CoSimEngine with no peripheral: a one-core machine must run
  // byte-identically to it (trace and statistics) and needs no machine
  // engine.
  const assembler::Program program = assembler::assemble_or_throw(kShimProgram);
  iss::LmbMemory memory;
  memory.load_program(program);
  fsl::FslHub hub;
  iss::Processor cpu(isa::CpuConfig{}, memory, &hub);
  core::CoSimEngine engine(cpu, nullptr, hub);
  obs::TraceBus bus;
  std::ostringstream wired_trace;
  bus.add_sink(std::make_unique<obs::JsonlSink>(wired_trace));
  cpu.set_trace_bus(&bus);
  hub.set_trace_bus(&bus);
  engine.set_trace_bus(&bus);
  engine.reset(program.entry());
  ASSERT_EQ(engine.run(), core::StopReason::kHalted);
  bus.flush();

  auto described = SimSystem::Builder()
                       .machine(machine::MachineDesc::single_core(kShimProgram))
                       .build();
  ASSERT_TRUE(described.ok()) << described.error();
  SimSystem system = std::move(described).value();
  std::ostringstream machine_trace;
  system.trace_bus().add_sink(std::make_unique<obs::JsonlSink>(machine_trace));
  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  EXPECT_EQ(system.word_on(0, "result"), 55u);

  // Byte-identical trace (no core origins, same channel names) and
  // identical statistics.
  ASSERT_FALSE(wired_trace.str().empty());
  EXPECT_EQ(machine_trace.str(), wired_trace.str());
  EXPECT_EQ(system.stats().cycles, engine.stats().cycles);
  EXPECT_EQ(system.stats().instructions, engine.stats().instructions);
  EXPECT_EQ(system.machine_engine(), nullptr);
}

// ------------------------------------- halt attribution & debugger stepping

TEST(ManyCore, HaltIsAttributedToTheLastCoreToStop) {
  auto built = SimSystem::Builder().machine(two_core_pipeline()).build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  // The producer drains its four words and halts long before the
  // consumer finishes storing them: the machine's halt belongs to the
  // consumer, not to core 0 by default (the old behavior this pins).
  EXPECT_EQ(system.stop_core(), 1u);
  EXPECT_LT(system.core_stats(0).cycles, system.core_stats(1).cycles);
}

TEST(ManyCore, CycleLimitStopNamesNoCore) {
  auto built = SimSystem::Builder().machine(two_core_pipeline()).build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  EXPECT_EQ(system.run(32), core::StopReason::kCycleLimit);
  EXPECT_EQ(system.stop_core(), core::MachineStop::kNoCore);
}

TEST(ManyCore, SteppingAHaltedCoreIsANoOp) {
  auto built = SimSystem::Builder().machine(two_core_pipeline()).build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  core::ManyCoreEngine* engine = system.machine_engine();
  ASSERT_NE(engine, nullptr);

  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  const core::CoSimStats before = system.stats();
  const u64 link_words = engine->link_words();

  // Every core has halted; a debugger single-step of any of them must
  // report the halt without re-executing it (the regression: the step
  // used to run the halted processor again and skew its counters).
  for (std::size_t index = 0; index < engine->core_count(); ++index) {
    const iss::StepResult step = engine->debug_step(index);
    EXPECT_EQ(step.event, iss::Event::kHalted) << "core " << index;
    EXPECT_EQ(step.cycles, 0u) << "core " << index;
  }
  const core::CoSimStats after = system.stats();
  EXPECT_EQ(after.cycles, before.cycles);
  EXPECT_EQ(after.instructions, before.instructions);
  EXPECT_EQ(engine->link_words(), link_words);
}

// ------------------------------------------------ execution-tier identity

// The execution tiers must be invisible to the machine: identical
// CoSimStats, memory results and link traffic whichever tier every core
// runs on and however many host workers advance the quantum rounds.

struct TierRun {
  core::CoSimStats stats;
  u64 link_words = 0;
  std::vector<Word> results;
  iss::DbtStats dbt;
};

constexpr iss::ExecTier kAllTiers[] = {
    iss::ExecTier::kPrecise, iss::ExecTier::kPredecode, iss::ExecTier::kDbt};

void expect_tier_run_identical(const TierRun& run, const TierRun& baseline,
                               iss::ExecTier tier, unsigned workers) {
  const std::string label = std::string(iss::to_string(tier)) + " tier, " +
                            std::to_string(workers) + " workers";
  EXPECT_EQ(run.results, baseline.results) << label;
  EXPECT_EQ(run.link_words, baseline.link_words) << label;
  EXPECT_EQ(run.stats.cycles, baseline.stats.cycles) << label;
  EXPECT_EQ(run.stats.instructions, baseline.stats.instructions) << label;
  EXPECT_EQ(run.stats.fsl_stall_cycles, baseline.stats.fsl_stall_cycles)
      << label;
}

TierRun run_farm_with_tier(unsigned workers, iss::ExecTier tier) {
  apps::register_machine_peripherals();
  machine::MachineDesc desc = mini_farm();
  for (auto& core : desc.cores) core.exec_tier = tier;
  auto built =
      SimSystem::Builder().machine(std::move(desc)).workers(workers).build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  EXPECT_EQ(system.run(), core::StopReason::kHalted);

  TierRun run;
  run.stats = system.stats();
  run.link_words = system.machine_engine()->link_words();
  run.dbt = system.dbt_stats();
  for (u32 i = 0; i < 4; ++i) {
    run.results.push_back(system.word_on(2, "results", i));
  }
  return run;
}

TEST(ManyCore, FarmTierIdentityAcrossWorkerCounts) {
  const TierRun baseline = run_farm_with_tier(1, iss::ExecTier::kPrecise);
  ASSERT_EQ(baseline.results.size(), 4u);
  for (const iss::ExecTier tier : kAllTiers) {
    for (const unsigned workers : {1u, 2u, 8u}) {
      expect_tier_run_identical(run_farm_with_tier(workers, tier), baseline,
                                tier, workers);
    }
  }
}

// A 2-core matmul machine (each core drives its own block-multiplier
// peripheral through the paper's streaming schedule) is hot enough to
// cross the dbt promotion threshold — the tier must actually engage and
// still be invisible in the statistics at every worker count.
namespace matmul = mbcosim::apps::matmul;

machine::MachineDesc matmul_machine(const matmul::Matrix& a,
                                    const matmul::Matrix& b,
                                    iss::ExecTier tier) {
  machine::CoreDesc core_template;
  core_template.name = "pe";
  core_template.program = matmul::hw_driver_program(a, b, 4);
  core_template.exec_tier = tier;
  machine::MachineDesc desc =
      machine::MachineDesc::replicated(2, core_template);
  for (const machine::CoreDesc& core : desc.cores) {
    machine::PeripheralDesc mac;
    mac.core = core.name;
    mac.type = "matmul";
    mac.channel = 0;
    mac.params["block_size"] = 4;
    desc.peripherals.push_back(mac);
  }
  desc.quantum = 64;
  return desc;
}

TierRun run_matmul_machine(unsigned workers, iss::ExecTier tier) {
  apps::register_machine_peripherals();
  const matmul::Matrix a = matmul::make_matrix(8, 3);
  const matmul::Matrix b = matmul::make_matrix(8, 7);
  auto built = SimSystem::Builder()
                   .machine(matmul_machine(a, b, tier))
                   .workers(workers)
                   .build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  EXPECT_EQ(system.run(), core::StopReason::kHalted);

  TierRun run;
  run.stats = system.stats();
  run.link_words = system.machine_engine()->link_words();
  run.dbt = system.dbt_stats();
  const matmul::Matrix expected = matmul::multiply_reference(a, b);
  for (std::size_t core = 0; core < 2; ++core) {
    for (u32 i = 0; i < 8 * 8; ++i) {
      run.results.push_back(system.word_on(core, "mat_c", i));
      EXPECT_EQ(static_cast<i32>(run.results.back()),
                expected.data[i])
          << "core " << core << " element " << i;
    }
  }
  return run;
}

TEST(ManyCore, MatmulMachineTierIdentityAcrossWorkerCounts) {
  const TierRun baseline = run_matmul_machine(1, iss::ExecTier::kPrecise);
  ASSERT_EQ(baseline.results.size(), 2u * 8 * 8);
  EXPECT_EQ(baseline.dbt.blocks_translated, 0u);  // precise tier: no dbt
  for (const iss::ExecTier tier : kAllTiers) {
    for (const unsigned workers : {1u, 2u, 8u}) {
      expect_tier_run_identical(run_matmul_machine(workers, tier), baseline,
                                tier, workers);
    }
  }
  // The driver loops are hot: the dbt tier must actually have engaged.
  const TierRun dbt = run_matmul_machine(2, iss::ExecTier::kDbt);
  EXPECT_GE(dbt.dbt.blocks_translated, 2u);  // at least one block per core
  EXPECT_GT(dbt.dbt.dbt_instructions, 0u);
}

// ------------------------------------------------ persistent round workers

// The engine's helper threads live across run() calls and cores are
// re-placed on them by measured host cost; none of that may show in
// the results. A chunked run (many run() calls at quantum-multiple
// targets, with a checkpoint hop to a freshly built system halfway)
// must equal the same chunked run on one thread at every worker count.
// (It is not compared with a one-shot run: runs are not yet chunk
// invariant. A core whose last instruction straddles a chunk target
// moves the next run()'s round boundaries, and with them the cycle at
// which link words arrive.)

/// The cordic_farm.json topology (feeder -> worker + 16-PE CORDIC ->
/// collector, quantum 64) looped over `sets` sets of four items.
machine::MachineDesc looped_farm(unsigned sets) {
  const std::string count = std::to_string(sets);
  machine::MachineDesc desc = mini_farm();
  desc.cores[0].program = "start:\n  li r25, " + count + R"(
set_loop:
  la r21, data_x
  la r22, data_y
  li r29, 16
  addk r10, r0, r0
item_loop:
  lw r3, r21, r10
  put r3, rfsl1
  lw r4, r22, r10
  put r4, rfsl1
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, item_loop
  addik r25, r25, -1
  bnei r25, set_loop
  halt
data_x:
  .word 0x01000000
  .word 0x02000000
  .word 0x01800000
  .word 0x04000000
data_y:
  .word 0x00800000
  .word 0x03000000
  .word 0x00c00000
  .word 0x01000000
)";
  desc.cores[1].program = "start:\n  li r25, " + count + R"(
set_loop:
  cput r0, rfsl0
  li r5, 4
send_loop:
  get r3, rfsl1
  put r3, rfsl0
  get r3, rfsl1
  put r3, rfsl0
  put r0, rfsl0
  addik r5, r5, -1
  bnei r5, send_loop
  li r5, 4
recv_loop:
  get r3, rfsl0
  get r3, rfsl0
  get r3, rfsl0
  put r3, rfsl2
  addik r5, r5, -1
  bnei r5, recv_loop
  addik r25, r25, -1
  bnei r25, set_loop
  halt
)";
  desc.cores[2].program = "start:\n  li r25, " + count + R"(
set_loop:
  la r28, results
  li r29, 16
  addk r10, r0, r0
store_loop:
  get r3, rfsl1
  sw r3, r28, r10
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, store_loop
  addik r25, r25, -1
  bnei r25, set_loop
  halt
results: .space 16
)";
  desc.peripherals[0].params["num_pes"] = 16;
  desc.quantum = 64;
  return desc;
}

/// Everything a run leaves behind that must not depend on the host.
struct RunPages {
  std::string stats;
  std::string metrics;
  std::vector<std::string> traces;  ///< one JSONL stream per core
  std::vector<unsigned char> image;
};

/// Build `desc` with metrics on, appending each core's JSONL trace to
/// `streams` (created on first use).
SimSystem build_traced(
    const machine::MachineDesc& desc, unsigned workers,
    std::vector<std::unique_ptr<std::ostringstream>>& streams) {
  apps::register_machine_peripherals();
  auto built =
      SimSystem::Builder().machine(desc).workers(workers).metrics().build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  for (std::size_t i = 0; i < system.core_count(); ++i) {
    if (streams.size() <= i) {
      streams.push_back(std::make_unique<std::ostringstream>());
    }
    system.trace_bus(i).add_sink(
        std::make_unique<obs::JsonlSink>(*streams[i]));
  }
  return system;
}

RunPages pages_of(const SimSystem& system,
                  const std::vector<std::unique_ptr<std::ostringstream>>&
                      streams) {
  RunPages pages;
  pages.stats = stats_text(system);
  pages.metrics = system.metrics_snapshot().to_string();
  for (const auto& stream : streams) pages.traces.push_back(stream->str());
  pages.image = system.snapshot();
  return pages;
}

/// Run `desc` to its halt through 24 run() calls at targets 64, 128
/// and 192 cycles apart (repeating), then one to `end`. After the 12th
/// call the run moves to a fresh system at the same worker count
/// through snapshot()/restore_image() and the metrics state.
RunPages run_chunked(const machine::MachineDesc& desc, unsigned workers,
                     Cycle end) {
  std::vector<std::unique_ptr<std::ostringstream>> streams;
  SimSystem system = build_traced(desc, workers, streams);
  Cycle target = 0;
  for (unsigned call = 0; call < 24; ++call) {
    target += 64 * (1 + call % 3);
    EXPECT_EQ(system.run(target), core::StopReason::kCycleLimit)
        << workers << " workers, call " << call;
    if (call == 11) {
      const std::vector<unsigned char> image = system.snapshot();
      const std::vector<unsigned char> metrics = system.metrics_state();
      SimSystem resumed = build_traced(desc, workers, streams);
      const Status restored = resumed.restore_image(image);
      EXPECT_TRUE(restored.ok) << restored.message;
      const Status metrics_restored = resumed.restore_metrics_state(metrics);
      EXPECT_TRUE(metrics_restored.ok) << metrics_restored.message;
      system = std::move(resumed);
    }
  }
  EXPECT_EQ(system.run(end), core::StopReason::kHalted) << workers;
  return pages_of(system, streams);
}

void expect_pages_equal(const RunPages& got, const RunPages& want,
                        const std::string& label) {
  EXPECT_EQ(got.stats, want.stats) << label;
  EXPECT_EQ(got.metrics, want.metrics) << label;
  ASSERT_EQ(got.traces.size(), want.traces.size()) << label;
  for (std::size_t i = 0; i < got.traces.size(); ++i) {
    EXPECT_EQ(got.traces[i], want.traces[i]) << label << ", core " << i;
  }
  EXPECT_EQ(got.image, want.image) << label;
}

TEST(ManyCore, ChunkedFarmIsIndependentOfWorkerCount) {
  const machine::MachineDesc desc = looped_farm(48);
  constexpr Cycle kEnd = 64 * 120;
  const RunPages baseline = run_chunked(desc, 1, kEnd);
  ASSERT_EQ(baseline.traces.size(), 3u);
  for (const unsigned workers : {2u, 3u, 8u}) {
    expect_pages_equal(run_chunked(desc, workers, kEnd), baseline,
                       std::to_string(workers) + " workers");
  }
}

TEST(ManyCore, ChunkedMatmulMachineIsIndependentOfWorkerCount) {
  const matmul::Matrix a = matmul::make_matrix(8, 3);
  const matmul::Matrix b = matmul::make_matrix(8, 7);
  const machine::MachineDesc desc =
      matmul_machine(a, b, iss::ExecTier::kDbt);
  constexpr Cycle kEnd = 64 * 100;
  const RunPages baseline = run_chunked(desc, 1, kEnd);
  ASSERT_EQ(baseline.traces.size(), 2u);
  for (const unsigned workers : {2u, 3u, 8u}) {
    expect_pages_equal(run_chunked(desc, workers, kEnd), baseline,
                       std::to_string(workers) + " workers");
  }
}

TEST(ManyCore, TrapOnAHelperThreadNamesItsCore) {
  // Core 1 traps in the first round. Cores not yet measured are spread
  // over the threads in index order, so at 2 workers core 1 runs on the
  // helper thread, not on the caller.
  machine::MachineDesc desc;
  machine::CoreDesc spinner;
  spinner.name = "spinner";
  spinner.program =
      "start:\n  li r3, 1000000\nloop:\n  addik r3, r3, -1\n"
      "  bnei r3, loop\n  halt\n";
  machine::CoreDesc trapper;
  trapper.name = "trapper";
  trapper.program =
      "start:\n  addk r3, r0, r0\n  .word 0xFC000000\n  halt\n";
  desc.cores = {spinner, trapper};
  desc.quantum = 64;
  auto built =
      SimSystem::Builder().machine(std::move(desc)).workers(2).build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  EXPECT_EQ(system.run(64 * 100), core::StopReason::kIllegal);
  EXPECT_EQ(system.stop_core(), 1u);
  // The helper survives the trap: the next call resumes past the
  // illegal word (the trapper then halts) instead of hanging on the
  // round barrier, and the spinner runs on to the target.
  EXPECT_EQ(system.run(64 * 200), core::StopReason::kCycleLimit);
  EXPECT_GE(system.core_stats(0).cycles, 64u * 200);
  EXPECT_LT(system.core_stats(1).cycles, 64u);
}

TEST(ManyCore, DestroyingASystemJoinsItsParkedHelpers) {
  for (const unsigned workers : {2u, 3u, 8u}) {
    apps::register_machine_peripherals();
    auto built = SimSystem::Builder()
                     .machine(looped_farm(24))
                     .workers(workers)
                     .build();
    ASSERT_TRUE(built.ok()) << built.error();
    SimSystem system = std::move(built).value();
    EXPECT_EQ(system.run(64 * 10), core::StopReason::kCycleLimit);
    // Long past the spin budget: the helpers are parked on the epoch.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }  // ~SimSystem joins them with no run in flight
}

// ------------------------------------------------- deadlock & build errors

TEST(ManyCore, StarvedConsumerIsAMachineDeadlock) {
  for (const unsigned workers : {1u, 2u, 8u}) {
    machine::MachineDesc desc = two_core_pipeline();
    desc.cores[0].program = "halt\n";  // producer never feeds the link
    auto built = SimSystem::Builder()
                     .machine(std::move(desc))
                     .workers(workers)
                     .deadlock_threshold(2000)
                     .build();
    ASSERT_TRUE(built.ok()) << built.error();
    SimSystem system = std::move(built).value();

    EXPECT_EQ(system.run(), core::StopReason::kDeadlock) << workers;
    EXPECT_EQ(system.stop_core(), 1u) << workers;
    const auto diagnosis = system.deadlock_diagnosis();
    ASSERT_TRUE(diagnosis.has_value()) << workers;
    EXPECT_NE(diagnosis->channel.find("hw_to_mb1"), std::string::npos)
        << workers << " workers: " << diagnosis->channel;
  }
}

TEST(ManyCore, BuilderRejectsOutOfRangeCoreReferences) {
  auto bad_gdb =
      SimSystem::Builder().machine(two_core_pipeline()).gdb_core(5).build();
  ASSERT_FALSE(bad_gdb.ok());
  EXPECT_NE(bad_gdb.error().find("gdb_core 5 is out of range"),
            std::string::npos)
      << bad_gdb.error();

  fault::FaultPlan plan;
  plan.trigger_value = 10;
  plan.core = 5;
  auto bad_fault =
      SimSystem::Builder().machine(two_core_pipeline()).fault(plan).build();
  ASSERT_FALSE(bad_fault.ok());
  EXPECT_NE(bad_fault.error().find("fault plan targets core 5"),
            std::string::npos)
      << bad_fault.error();

  fault::FaultPlan pc_plan;
  pc_plan.trigger = fault::TriggerKind::kPc;
  auto pc_fault = SimSystem::Builder()
                      .machine(two_core_pipeline())
                      .fault(pc_plan)
                      .build();
  ASSERT_FALSE(pc_fault.ok());
  EXPECT_NE(pc_fault.error().find("pc-triggered"), std::string::npos)
      << pc_fault.error();
}

TEST(ManyCore, BuilderRejectsUnknownPeripheralTypes) {
  machine::MachineDesc desc = two_core_pipeline();
  machine::PeripheralDesc fft;
  fft.core = "producer";
  fft.type = "fft";
  fft.channel = 3;
  desc.peripherals = {fft};
  auto built = SimSystem::Builder().machine(std::move(desc)).build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("unknown peripheral type 'fft'"),
            std::string::npos)
      << built.error();
}

}  // namespace
}  // namespace mbcosim::sim
