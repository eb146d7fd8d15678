// Metrics are typed counters, not a trace sink: a metrics page must not
// depend on which execution tier ran the processors. Less its dbt.*
// lines, which count the translation work itself, the page of every
// machine below is byte-identical at the precise and dbt tiers, and at
// the dbt tier with a JSONL sink attached (which makes the
// processors fall back to the precise path). With metrics alone, the
// dbt tier really runs.
//
// Built into the tier-1 suite and, as the `metrics_tier` ctest label,
// into its own executable that the tsan preset runs: the multi-core
// machines count into per-core registries from the engine's round
// workers and from the link transfers between rounds.
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cordic/cordic_app.hpp"
#include "apps/cordic/cordic_sw.hpp"
#include "apps/machine_peripherals.hpp"
#include "apps/matmul/matmul_app.hpp"
#include "machine/machine_desc.hpp"
#include "obs/jsonl_sink.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::sim {
namespace {

struct Variant {
  iss::ExecTier tier;
  bool jsonl;  ///< attach a JSONL sink to every core
};

constexpr Variant kVariants[] = {{iss::ExecTier::kPrecise, false},
                                 {iss::ExecTier::kDbt, false},
                                 {iss::ExecTier::kDbt, true}};

std::string label(const Variant& variant) {
  return std::string(iss::to_string(variant.tier)) +
         (variant.jsonl ? " + jsonl" : "");
}

/// A metrics page without its dbt.* lines.
std::string without_dbt_lines(const std::string& page) {
  std::istringstream in(page);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("dbt.") == std::string::npos) out += line + "\n";
  }
  return out;
}

/// One JSONL stream per core: the cores of a machine run on different
/// host threads.
using Traces = std::vector<std::ostringstream>;

/// Build `desc` with every core at the variant's tier, metrics on, and
/// (per the variant) a JSONL sink per core writing into `traces`.
SimSystem build(machine::MachineDesc desc, const Variant& variant,
                Traces& traces) {
  apps::register_machine_peripherals();
  for (machine::CoreDesc& core : desc.cores) core.exec_tier = variant.tier;
  auto built =
      SimSystem::Builder().machine(std::move(desc)).workers(2).metrics().build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  if (variant.jsonl) {
    traces.resize(system.core_count());
    for (std::size_t i = 0; i < system.core_count(); ++i) {
      system.trace_bus(i).add_sink(std::make_unique<obs::JsonlSink>(traces[i]));
    }
  }
  return system;
}

struct Outcome {
  std::string page;
  u64 dbt_instructions = 0;
};

/// Compare every variant's page against the precise tier's, and check
/// that the dbt tier engaged whenever no sink was attached.
void expect_tier_invariant(const std::vector<Outcome>& outcomes) {
  ASSERT_EQ(outcomes.size(), std::size(kVariants));
  const std::string baseline = without_dbt_lines(outcomes.front().page);
  EXPECT_NE(baseline.find("cpu.retired"), std::string::npos) << baseline;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Variant& variant = kVariants[i];
    EXPECT_EQ(without_dbt_lines(outcomes[i].page), baseline)
        << label(variant);
    if (variant.tier == iss::ExecTier::kDbt && !variant.jsonl) {
      EXPECT_GT(outcomes[i].dbt_instructions, 0u) << label(variant);
    } else {
      EXPECT_EQ(outcomes[i].dbt_instructions, 0u) << label(variant);
    }
  }
}

/// Run `desc` to its halt in one call under every variant.
std::vector<Outcome> run_to_halt(const machine::MachineDesc& desc) {
  std::vector<Outcome> outcomes;
  for (const Variant& variant : kVariants) {
    Traces traces;
    SimSystem system = build(desc, variant, traces);
    EXPECT_EQ(system.run(), core::StopReason::kHalted) << label(variant);
    outcomes.push_back(
        {system.metrics_snapshot().to_string(), system.dbt_stats().dbt_instructions});
  }
  return outcomes;
}

TEST(MetricsTierInvariance, SingleCoreCordicWithHardware) {
  const auto [x, y] = apps::cordic::make_cordic_dataset(10, 3);
  machine::MachineDesc desc = machine::MachineDesc::single_core(
      apps::cordic::hw_driver_program(x, y, 24, 4));
  machine::PeripheralDesc cordic;
  cordic.core = desc.cores.front().name;
  cordic.type = "cordic";
  cordic.channel = 0;
  cordic.params["num_pes"] = 4;
  desc.peripherals.push_back(cordic);
  expect_tier_invariant(run_to_halt(desc));
}

TEST(MetricsTierInvariance, TwoCoreMatmulMachine) {
  namespace matmul = apps::matmul;
  const matmul::Matrix a = matmul::make_matrix(8, 3);
  const matmul::Matrix b = matmul::make_matrix(8, 7);
  machine::CoreDesc pe;
  pe.name = "pe";
  pe.program = matmul::hw_driver_program(a, b, 4);
  machine::MachineDesc desc = machine::MachineDesc::replicated(2, pe);
  for (const machine::CoreDesc& core : desc.cores) {
    machine::PeripheralDesc mac;
    mac.core = core.name;
    mac.type = "matmul";
    mac.channel = 0;
    mac.params["block_size"] = 4;
    desc.peripherals.push_back(mac);
  }
  expect_tier_invariant(run_to_halt(desc));
}

/// The cordic_farm.json topology (feeder -> worker + 16-PE CORDIC ->
/// collector) with every core looping over its work `rounds` times, so
/// the run spans many 6,400-cycle chunks.
machine::MachineDesc looped_farm(unsigned rounds) {
  const std::string count = std::to_string(rounds);
  machine::MachineDesc desc = machine::MachineDesc::from_file(
                                  std::string(MBCOSIM_EXAMPLES_DIR) +
                                  "/machines/cordic_farm.json")
                                  .value();
  for (machine::CoreDesc& core : desc.cores) core.program_file.clear();
  desc.cores[0].program = "start:\n  li r25, " + count + R"(
round_loop:
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
  bnei r25, round_loop
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
round_loop:
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
  bnei r25, round_loop
  halt
)";
  desc.cores[2].program = "start:\n  li r25, " + count + R"(
round_loop:
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
  bnei r25, round_loop
  halt
results: .space 16
)";
  return desc;
}

TEST(MetricsTierInvariance, ChunkedFarmWithMetricsStateHop) {
  // The hosted-session shape: 6,400-cycle chunks, and halfway a hop into
  // a freshly built system carrying the machine image and the metrics
  // state, as journal recovery does.
  constexpr Cycle kChunk = 6'400;
  constexpr unsigned kChunks = 6;
  const machine::MachineDesc desc = looped_farm(1'000);
  std::vector<Outcome> outcomes;
  for (const Variant& variant : kVariants) {
    Traces traces;
    SimSystem first = build(desc, variant, traces);
    for (unsigned chunk = 1; chunk <= kChunks / 2; ++chunk) {
      ASSERT_EQ(first.run(kChunk * chunk), core::StopReason::kCycleLimit)
          << label(variant);
    }
    u64 dbt_instructions = first.dbt_stats().dbt_instructions;
    Traces second_traces;
    SimSystem second = build(desc, variant, second_traces);
    ASSERT_TRUE(second.restore_image(first.snapshot()).ok) << label(variant);
    const Status metrics = second.restore_metrics_state(first.metrics_state());
    ASSERT_TRUE(metrics.ok) << metrics.message;
    for (unsigned chunk = kChunks / 2 + 1; chunk <= kChunks; ++chunk) {
      ASSERT_EQ(second.run(kChunk * chunk), core::StopReason::kCycleLimit)
          << label(variant);
    }
    dbt_instructions += second.dbt_stats().dbt_instructions;
    outcomes.push_back({second.metrics_snapshot().to_string(), dbt_instructions});
  }
  expect_tier_invariant(outcomes);
  // The farm's link traffic reached every core's page.
  EXPECT_NE(outcomes.front().page.find("collector.fsl.collector.hw_to_mb1.push"),
            std::string::npos);
}

}  // namespace
}  // namespace mbcosim::sim
