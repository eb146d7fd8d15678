// DeadlockDiagnosis: when the deadlock heuristic fires, the report must
// say *what* was blocked — instruction direction, channel, PC and FIFO
// state — not just that the run stopped.
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/cosim_engine.hpp"
#include "machine/machine_desc.hpp"
#include "obs/jsonl_sink.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::core {
namespace {

sim::SimSystem build_or_die(sim::SimSystem::Builder& builder) {
  auto built = builder.build();
  if (!built.ok()) throw SimError(built.error());
  return std::move(built).value();
}

sim::SimSystem build_or_die(sim::SimSystem::Builder&& builder) {
  return build_or_die(builder);
}

sim::SimSystem::Builder software_only(std::string program) {
  sim::SimSystem::Builder builder;
  builder.machine(machine::MachineDesc::single_core(std::move(program)));
  return builder;
}

TEST(DeadlockDiagnosis, BlockingGetOnEmptyChannelIsFullyDescribed) {
  auto system = build_or_die(
      software_only("blocked: get r4, rfsl0\nhalt\n").deadlock_threshold(100));
  EXPECT_EQ(system.run(100'000), StopReason::kDeadlock);

  const auto diagnosis = system.deadlock_diagnosis();
  ASSERT_TRUE(diagnosis.has_value());
  EXPECT_TRUE(diagnosis->is_get);
  EXPECT_EQ(diagnosis->channel, "hw_to_mb0");
  EXPECT_EQ(diagnosis->channel_id, 0u);
  EXPECT_EQ(diagnosis->pc, system.symbol("blocked"));  // parked on the get
  EXPECT_EQ(diagnosis->occupancy, 0u);       // blocked because empty
  EXPECT_GT(diagnosis->depth, 0u);
  EXPECT_GE(diagnosis->blocked_cycles, 100u);

  const std::string text = diagnosis->to_string();
  EXPECT_NE(text.find("blocking get"), std::string::npos);
  EXPECT_NE(text.find("hw_to_mb0"), std::string::npos);
}

TEST(DeadlockDiagnosis, BlockingPutOnFullChannelReportsOccupancy) {
  // With no hardware draining mb_to_hw0, the put loop fills the FIFO to
  // depth and then blocks; the diagnosis must show the full FIFO.
  auto system = build_or_die(software_only("loop:\n"
                                           "  put r3, rfsl0\n"
                                           "  bri loop\n"
                                           "halt\n")
                                 .deadlock_threshold(100));
  EXPECT_EQ(system.run(100'000), StopReason::kDeadlock);

  const auto diagnosis = system.deadlock_diagnosis();
  ASSERT_TRUE(diagnosis.has_value());
  EXPECT_FALSE(diagnosis->is_get);
  EXPECT_EQ(diagnosis->channel, "mb_to_hw0");
  EXPECT_GT(diagnosis->depth, 0u);
  EXPECT_EQ(diagnosis->occupancy, diagnosis->depth);  // blocked because full
  EXPECT_NE(diagnosis->to_string().find("blocking put"), std::string::npos);
}

TEST(DeadlockDiagnosis, AbsentWhenTheRunHalts) {
  auto system = build_or_die(software_only("addik r3, r3, 1\nhalt\n"));
  EXPECT_EQ(system.run(), StopReason::kHalted);
  EXPECT_FALSE(system.deadlock_diagnosis().has_value());
}

// Exact figures of a software-only core blocked on FSL, recorded from an
// earlier release (when such a core ran through a loop of its own): the
// stop cycle, the streak length, the diagnosis text, the metrics page and
// the emitted `deadlock` event must not move on any execution tier. Only
// the page's dbt.* lines, which count the translation work itself, read
// differently at the dbt tier: metrics leave that tier running.
struct BlockedProgram {
  const char* name;
  const char* source;
  Cycle cycles;
  u64 instructions;
  const char* diagnosis;
  const char* metrics;
  /// The page's dbt.* lines when the core runs at the dbt tier; null when
  /// they read the same zeros as on the other tiers.
  const char* dbt_tier_dbt_lines;
  std::size_t trace_lines;
  const char* deadlock_event;
};

const BlockedProgram kBlockedGet{
    "get",
    "  li r3, 7\n  addik r3, r3, 1\n  addik r3, r3, 1\n"
    "blocked:\n  get r4, rfsl0\n  halt\n",
    5004,
    4,
    "deadlock: blocking get on hw_to_mb0 (fsl 0) at pc 0x00000010, "
    "fifo 0/16, blocked 5000 cycles",
    "cpu.retired                  4\n"
    "cpu.stall_cycles             5000\n"
    "dbt.block_dispatches         0\n"
    "dbt.blocks_translated        0\n"
    "dbt.fast_path_instructions   0\n"
    "dbt.smc_retirements          0\n"
    "engine.deadlocks             1\n"
    "cpu.stall_run                count=1 min=5000 mean=5000.0 max=5000 "
    "buckets=[0 0 0 0 0 0 0 0 0 0 0 0 0 1]\n",
    nullptr,
    5005,
    R"({"t":5004,"kind":"deadlock","blocked_cycles":5000})"};

const BlockedProgram kBlockedPut{
    "put",
    "  li r5, 20\nloop:\n  put r5, rfsl1\n  addik r5, r5, -1\n"
    "  bnei r5, loop\n  halt\n",
    5098,
    50,
    "deadlock: blocking put on mb_to_hw1 (fsl 1) at pc 0x00000008, "
    "fifo 16/16, blocked 5000 cycles",
    "cpu.retired                  50\n"
    "cpu.stall_cycles             5000\n"
    "dbt.block_dispatches         0\n"
    "dbt.blocks_translated        0\n"
    "dbt.fast_path_instructions   0\n"
    "dbt.smc_retirements          0\n"
    "engine.deadlocks             1\n"
    "fsl.mb_to_hw1.push           16\n"
    "cpu.stall_run                count=1 min=5000 mean=5000.0 max=5000 "
    "buckets=[0 0 0 0 0 0 0 0 0 0 0 0 0 1]\n"
    "fsl.mb_to_hw1.occupancy      count=16 min=1 mean=8.5 max=16 "
    "buckets=[0 1 2 4 8 1]\n",
    // The loop's block starts at the put, which runs stitched: each of
    // the 5000 stalled retries dispatches the block and leaves it at once.
    "dbt.block_dispatches         5015\n"
    "dbt.blocks_translated        1\n"
    "dbt.fast_path_instructions   45\n"
    "dbt.smc_retirements          0\n",
    5067,
    R"({"t":5098,"kind":"deadlock","blocked_cycles":5000})"};

enum class Sink { kNone, kMetrics, kJsonl };

/// The expected metrics page of `program` at `tier`.
std::string expected_metrics(const BlockedProgram& program,
                             iss::ExecTier tier) {
  std::string page = program.metrics;
  if (tier == iss::ExecTier::kDbt && program.dbt_tier_dbt_lines != nullptr) {
    const std::size_t begin = page.find("dbt.");
    const std::size_t end = page.find("engine.");
    page.replace(begin, end - begin, program.dbt_tier_dbt_lines);
  }
  return page;
}

void expect_exact_deadlock(const BlockedProgram& program, iss::ExecTier tier,
                           Sink sink) {
  SCOPED_TRACE(std::string(program.name) + " on " +
               iss::to_string(tier) + " sink " +
               std::to_string(static_cast<int>(sink)));
  machine::MachineDesc desc = machine::MachineDesc::single_core(program.source);
  desc.cores.front().exec_tier = tier;
  sim::SimSystem::Builder builder;
  builder.machine(desc).deadlock_threshold(5000);
  std::ostringstream trace;
  if (sink == Sink::kMetrics) builder.metrics();
  if (sink == Sink::kJsonl) {
    builder.sink(std::make_unique<obs::JsonlSink>(trace));
  }
  sim::SimSystem system = build_or_die(builder);

  ASSERT_EQ(system.run(1'000'000), StopReason::kDeadlock);
  const CoSimStats stats = system.stats();
  EXPECT_EQ(stats.cycles, program.cycles);
  EXPECT_EQ(stats.instructions, program.instructions);
  EXPECT_EQ(stats.fsl_stall_cycles, 5000u);
  EXPECT_EQ(stats.hw_cycles_stepped, 0u);
  const auto diagnosis = system.deadlock_diagnosis();
  ASSERT_TRUE(diagnosis.has_value());
  EXPECT_EQ(diagnosis->blocked_cycles, 5000u);
  EXPECT_EQ(diagnosis->to_string(), program.diagnosis);

  if (sink == Sink::kMetrics) {
    EXPECT_EQ(system.metrics_snapshot().to_string(),
              expected_metrics(program, tier));
  }
  if (sink == Sink::kJsonl) {
    std::istringstream lines(trace.str());
    std::string line;
    std::string last;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
      ++count;
      last = line;
    }
    EXPECT_EQ(count, program.trace_lines);
    EXPECT_EQ(last, program.deadlock_event);  // the run's final event
  }
}

TEST(DeadlockDiagnosis, SoftwareOnlyStopIsExactOnEveryTierAndSink) {
  for (const BlockedProgram* program : {&kBlockedGet, &kBlockedPut}) {
    for (const iss::ExecTier tier :
         {iss::ExecTier::kPrecise, iss::ExecTier::kDbt}) {
      for (const Sink sink : {Sink::kNone, Sink::kMetrics, Sink::kJsonl}) {
        expect_exact_deadlock(*program, tier, sink);
      }
    }
  }
}

}  // namespace
}  // namespace mbcosim::core
