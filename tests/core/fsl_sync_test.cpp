// The fast path's FSL sync. At the dbt tier every FSL access of a
// co-simulation runs where the processor meets it, inside a superblock
// or through step(), right after the engine's FslSync hook brought the
// hardware to the access's cycle. A run split into quanta of any size,
// so that quanta end on, just before and just after the accesses, must
// leave the system exactly as one run does, and both must agree with the
// precise tier's one-step alternation: stats, metrics page and all.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cordic/cordic_app.hpp"
#include "apps/cordic/cordic_sw.hpp"
#include "apps/machine_peripherals.hpp"
#include "asm/assembler.hpp"
#include "core/cosim_engine.hpp"
#include "machine/machine_desc.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::core {
namespace {

/// A one-core machine driving a CORDIC pipeline of `num_pes` PEs over 12
/// items, at `tier`, with metrics on.
sim::SimSystem cordic_system(unsigned num_pes, iss::ExecTier tier) {
  apps::register_machine_peripherals();
  const auto [x, y] = apps::cordic::make_cordic_dataset(12, 5);
  machine::MachineDesc desc = machine::MachineDesc::single_core(
      apps::cordic::hw_driver_program(x, y, 16, num_pes, 3));
  desc.cores.front().exec_tier = tier;
  machine::PeripheralDesc cordic;
  cordic.core = desc.cores.front().name;
  cordic.type = "cordic";
  cordic.channel = 0;
  cordic.params["num_pes"] = num_pes;
  desc.peripherals.push_back(cordic);
  auto built =
      sim::SimSystem::Builder().machine(std::move(desc)).metrics().build();
  if (!built.ok()) throw SimError(built.error());
  return std::move(built).value();
}

void expect_same_stats(const CoSimStats& a, const CoSimStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.fsl_stall_cycles, b.fsl_stall_cycles);
  EXPECT_EQ(a.hw_cycles_stepped, b.hw_cycles_stepped);
  EXPECT_EQ(a.hw_cycles_skipped, b.hw_cycles_skipped);
  EXPECT_EQ(a.bridge.words_to_hw, b.bridge.words_to_hw);
  EXPECT_EQ(a.bridge.words_from_hw, b.bridge.words_from_hw);
  EXPECT_EQ(a.bridge.refused_writes, b.bridge.refused_writes);
}

TEST(FslSync, CordicChunkedAtEveryBudgetEqualsOneRun) {
  for (const unsigned num_pes : {1u, 4u}) {
    SCOPED_TRACE("P=" + std::to_string(num_pes));
    sim::SimSystem precise = cordic_system(num_pes, iss::ExecTier::kPrecise);
    ASSERT_EQ(precise.run(), StopReason::kHalted);
    sim::SimSystem oneshot = cordic_system(num_pes, iss::ExecTier::kDbt);
    ASSERT_EQ(oneshot.run(), StopReason::kHalted);
    // The accesses ran stitched: once the warm-up has promoted each
    // block, every instruction retires inside a superblock.
    ASSERT_GT(2 * oneshot.dbt_stats().dbt_instructions,
              oneshot.stats().instructions);
    expect_same_stats(oneshot.stats(), precise.stats());
    const std::string page = precise.metrics_snapshot().to_string();
    EXPECT_EQ(oneshot.metrics_snapshot().to_string(), page);

    for (Cycle budget = 1; budget <= 24; ++budget) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      sim::SimSystem chunked = cordic_system(num_pes, iss::ExecTier::kDbt);
      StopReason reason = StopReason::kCycleLimit;
      while (reason == StopReason::kCycleLimit) {
        reason = chunked.run(chunked.stats().cycles + budget);
      }
      ASSERT_EQ(reason, StopReason::kHalted);
      expect_same_stats(chunked.stats(), precise.stats());
      // The images name the tier (it is part of the machine), so the
      // chunked run's is compared with the one-shot run's at its tier.
      EXPECT_EQ(chunked.snapshot(), oneshot.snapshot());
      EXPECT_EQ(chunked.metrics_snapshot().to_string(), page);
    }
  }
}

// A batch that retires instructions and then stalls restarts the stall
// streak at the access before it counts the stalled cycle, as a retired
// precise step does. The word that unblocks the core here arrives from
// outside the bridge, so it moves no bridge traffic: only the retired
// instructions may restart the streak.
TEST(FslSync, WorkBeforeAStallRestartsTheStreak) {
  const char* source =
      "loop:\n"
      "  get r4, rfsl0\n"
      "  addik r5, r5, 1\n"
      "  bri loop\n";
  const auto streaks = [&](iss::ExecTier tier) {
    const assembler::Program program = assembler::assemble_or_throw(source);
    iss::LmbMemory memory(4 * 1024);
    memory.load_program(program);
    fsl::FslHub hub;
    iss::Processor cpu(isa::CpuConfig{}, memory, &hub);
    cpu.reset(program.entry());
    cpu.set_exec_tier(tier);
    sysgen::Model model("idle");
    CoSimEngine engine(cpu, &model, hub);
    std::vector<Cycle> lengths;
    for (int round = 0; round < 30; ++round) {
      EXPECT_EQ(engine.run(cpu.cycle() + 40), StopReason::kCycleLimit);
      lengths.push_back(engine.stall_streak().length());
      hub.from_hw(0).try_write(static_cast<Word>(round), false);
    }
    return lengths;
  };
  const std::vector<Cycle> precise = streaks(iss::ExecTier::kPrecise);
  EXPECT_EQ(streaks(iss::ExecTier::kDbt), precise);
  // Each round's word lets the loop run once, so no streak outlives it.
  EXPECT_LT(precise.back(), 40u);
}

}  // namespace
}  // namespace mbcosim::core
