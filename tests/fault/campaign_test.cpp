// Experiment classification (all four outcome classes against one small
// design) and campaign determinism: the same seed produces a byte-
// identical JSON report at any worker count.
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "bus/opb_bus.hpp"
#include "fault/campaign.hpp"
#include "fault/experiment.hpp"
#include "fault/fault_plan.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::fault {
namespace {

// Software + one OPB scratchpad. The `input` flag guards a spin loop so
// a single data-bit upset can produce a hang; the OPB read gives bus
// faults an architectural victim.
constexpr const char* kVictimSource = R"(
  start:
    la   r5, input
    lwi  r3, r5, 0
    beqi r3, hang
    li   r7, 0xc0000000
    lwi  r4, r7, 0
    addk r3, r3, r4
    addik r3, r3, 1
    la   r6, output
    swi  r3, r6, 0
    halt
  hang:
    addik r4, r4, 1
    bri  hang
  input:  .word 1
  unused: .word 0
  output: .space 4
)";

constexpr Cycle kBudget = 20'000;

Expected<sim::SimSystem> victim_factory(const FaultPlan* plan) {
  sim::SimSystem::Builder builder;
  auto opb = std::make_unique<bus::OpbBus>();
  opb->map("scratch", 0xc000'0000, 64, std::make_unique<bus::OpbScratchpad>(8));
  builder.machine(machine::MachineDesc::single_core(kVictimSource))
      .opb(std::move(opb));
  if (plan != nullptr) builder.fault(*plan);
  return builder.build();
}

std::vector<Word> victim_outputs(sim::SimSystem& system) {
  return {system.word("output")};
}

GoldenReference golden_or_die() {
  auto golden = run_golden(victim_factory, victim_outputs, kBudget);
  if (!golden.ok()) throw SimError(golden.error());
  return std::move(golden).value();
}

TEST(Experiment, GoldenRunHaltsWithTheExpectedOutput) {
  const GoldenReference golden = golden_or_die();
  EXPECT_EQ(golden.stop, core::StopReason::kHalted);
  ASSERT_EQ(golden.outputs.size(), 1u);
  EXPECT_EQ(golden.outputs[0], 2u);  // input 1 + scratchpad 0 + 1
  EXPECT_GT(golden.cycles, 0u);
}

TEST(Experiment, ClassifiesMasked) {
  const GoldenReference golden = golden_or_die();
  FaultPlan flip;
  flip.site = FaultSite::kMemory;
  flip.mode = FaultMode::kBitFlip;
  flip.trigger = TriggerKind::kCycle;
  flip.trigger_value = 1;
  flip.mask = 0x1;
  {
    auto system = victim_factory(nullptr);
    ASSERT_TRUE(system.ok());
    flip.address = system.value().symbol("unused");
  }
  const ExperimentResult result =
      run_experiment(victim_factory, victim_outputs, flip, golden, kBudget);
  EXPECT_EQ(result.outcome, Outcome::kMasked);
  EXPECT_EQ(result.stop, core::StopReason::kHalted);
  EXPECT_TRUE(result.injected);
  EXPECT_TRUE(result.error.empty());
}

TEST(Experiment, ClassifiesSdcHangAndTrap) {
  const GoldenReference golden = golden_or_die();
  Addr input_addr = 0;
  {
    auto system = victim_factory(nullptr);
    ASSERT_TRUE(system.ok());
    input_addr = system.value().symbol("input");
  }

  FaultPlan sdc;
  sdc.site = FaultSite::kMemory;
  sdc.mode = FaultMode::kBitFlip;
  sdc.trigger = TriggerKind::kCycle;
  sdc.trigger_value = 1;
  sdc.address = input_addr;
  sdc.mask = 0x4;  // input 1 -> 5: still nonzero, wrong value
  const ExperimentResult sdc_result =
      run_experiment(victim_factory, victim_outputs, sdc, golden, kBudget);
  EXPECT_EQ(sdc_result.outcome, Outcome::kSdc);
  EXPECT_NE(sdc_result.detail.find("output[0]"), std::string::npos);

  FaultPlan hang = sdc;
  hang.mask = 0x1;  // input 1 -> 0: the guard sends execution to the spin
  const ExperimentResult hang_result =
      run_experiment(victim_factory, victim_outputs, hang, golden, kBudget);
  EXPECT_EQ(hang_result.outcome, Outcome::kHang);
  EXPECT_EQ(hang_result.stop, core::StopReason::kCycleLimit);
  EXPECT_NE(hang_result.detail.find("cycle budget"), std::string::npos);

  const auto trap = parse_plan("site=opb,mode=buserror,count=0");
  ASSERT_TRUE(trap.ok()) << trap.error();
  const ExperimentResult trap_result = run_experiment(
      victim_factory, victim_outputs, trap.value(), golden, kBudget);
  EXPECT_EQ(trap_result.outcome, Outcome::kTrap);
  EXPECT_EQ(trap_result.stop, core::StopReason::kIllegal);
}

TEST(Experiment, FactoryFailureIsReportedNotThrown) {
  const GoldenReference golden = golden_or_die();
  const SystemFactory broken = [](const FaultPlan* plan)
      -> Expected<sim::SimSystem> {
    if (plan != nullptr) {
      return Expected<sim::SimSystem>::failure("synthetic build failure");
    }
    return victim_factory(nullptr);
  };
  FaultPlan plan;
  plan.trigger = TriggerKind::kCycle;
  plan.trigger_value = 1;
  const ExperimentResult result =
      run_experiment(broken, victim_outputs, plan, golden, kBudget);
  EXPECT_EQ(result.error, "synthetic build failure");
}

CampaignConfig small_campaign(unsigned threads) {
  CampaignConfig config;
  config.seed = 0xc0ffee;
  config.experiments = 30;
  config.threads = threads;
  config.max_cycles = kBudget;
  config.space.mem_base = 0;
  config.space.mem_bytes = 128;
  config.space.registers = 8;
  config.space.opb = true;
  config.space.max_trigger_cycle = 40;
  return config;
}

TEST(Campaign, ReportIsByteIdenticalAcrossWorkerCounts) {
  const auto serial =
      run_campaign(small_campaign(1), victim_factory, victim_outputs);
  ASSERT_TRUE(serial.ok()) << serial.error();
  const auto parallel =
      run_campaign(small_campaign(4), victim_factory, victim_outputs);
  ASSERT_TRUE(parallel.ok()) << parallel.error();
  EXPECT_EQ(serial.value().to_json(), parallel.value().to_json());

  // And across repeated runs at the same worker count.
  const auto again =
      run_campaign(small_campaign(4), victim_factory, victim_outputs);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_EQ(parallel.value().to_json(), again.value().to_json());
}

TEST(Campaign, ForkedReportIsByteIdenticalToUnforked) {
  // A late trigger window gives every cycle-triggered plan a long shared
  // fault-free prefix — the case fork-from-checkpoint accelerates. The
  // acceleration must be invisible in the report.
  CampaignConfig forked = small_campaign(4);
  forked.space.min_trigger_cycle = 20;
  forked.space.max_trigger_cycle = 60;
  CampaignConfig unforked = forked;
  unforked.fork = false;

  const auto fast = run_campaign(forked, victim_factory, victim_outputs);
  ASSERT_TRUE(fast.ok()) << fast.error();
  const auto slow = run_campaign(unforked, victim_factory, victim_outputs);
  ASSERT_TRUE(slow.ok()) << slow.error();
  EXPECT_EQ(fast.value().to_json(), slow.value().to_json());

  // The sampling window is honored: every cycle trigger landed in it.
  for (const ExperimentResult& row : fast.value().results) {
    if (row.plan.trigger != TriggerKind::kCycle) continue;
    EXPECT_GE(row.plan.trigger_value, 20u);
    EXPECT_LE(row.plan.trigger_value, 60u);
  }
}

TEST(Campaign, HistogramsAddUpAndEveryRowIsAccounted) {
  const auto report =
      run_campaign(small_campaign(2), victim_factory, victim_outputs);
  ASSERT_TRUE(report.ok()) << report.error();
  const CampaignReport& result = report.value();
  ASSERT_EQ(result.results.size(), 30u);
  u32 classified = 0;
  for (const Outcome outcome : {Outcome::kMasked, Outcome::kSdc,
                                Outcome::kHang, Outcome::kTrap}) {
    classified += result.total(outcome);
  }
  EXPECT_EQ(classified + result.build_failures, 30u);
  u32 by_site = 0;
  for (const auto& [site, counts] : result.by_site) {
    for (const u32 count : counts) by_site += count;
  }
  EXPECT_EQ(by_site, classified);
}

TEST(Campaign, GoldenFailureIsTheCampaignError) {
  const SystemFactory never_halts = [](const FaultPlan*)
      -> Expected<sim::SimSystem> {
    return sim::SimSystem::Builder()
        .machine(machine::MachineDesc::single_core(
            "loop: addik r3, r3, 1\nbri loop\nhalt\n"))
        .build();
  };
  const auto report = run_campaign(small_campaign(1), never_halts,
                                   [](sim::SimSystem&) {
                                     return std::vector<Word>{};
                                   });
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().find("did not halt"), std::string::npos);
}

}  // namespace
}  // namespace mbcosim::fault
