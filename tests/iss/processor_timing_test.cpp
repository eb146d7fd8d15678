// Cycle-accuracy tests: the ISS must charge exactly the documented
// latencies (this is the property the whole co-simulation environment is
// built on — paper Section I).
#include <gtest/gtest.h>

#include <vector>

#include "iss/test_helpers.hpp"

namespace mbcosim::iss {
namespace {

using testing::TestMachine;

/// Cycles consumed by the program body, excluding the final halt (bri 0,
/// 3 cycles).
Cycle body_cycles(const char* source) {
  TestMachine m(source);
  EXPECT_EQ(m.run(), Event::kHalted);
  return m.cpu.stats().cycles - 3;
}

TEST(CycleAccuracy, SingleAluOp) {
  EXPECT_EQ(body_cycles("add r3, r4, r5\nhalt\n"), 1u);
}

TEST(CycleAccuracy, MultiplyIsThreeCycles) {
  EXPECT_EQ(body_cycles("mul r3, r4, r5\nhalt\n"), 3u);
}

TEST(CycleAccuracy, DivideIs34Cycles) {
  EXPECT_EQ(body_cycles("idiv r3, r4, r5\nhalt\n"), 34u);
}

TEST(CycleAccuracy, LoadStoreTwoCycles) {
  EXPECT_EQ(body_cycles("lwi r3, r0, 0\nhalt\n"), 2u);
  EXPECT_EQ(body_cycles("swi r3, r0, 0\nhalt\n"), 2u);
}

TEST(CycleAccuracy, TakenBranchThreeCycles) {
  EXPECT_EQ(body_cycles("bri next\nnext: halt\n"), 3u);
}

TEST(CycleAccuracy, DelaySlotBranchTwoCyclesPlusSlot) {
  // brid (2) + delay-slot add (1).
  EXPECT_EQ(body_cycles("brid next\nadd r3, r3, r3\nnext: halt\n"), 3u);
}

TEST(CycleAccuracy, NotTakenConditionalOneCycle) {
  EXPECT_EQ(body_cycles("bnei r0, away\nhalt\naway: halt\n"), 1u);
}

TEST(CycleAccuracy, TakenConditionalThreeCycles) {
  EXPECT_EQ(body_cycles("beqi r0, away\nhalt\naway: halt\n"), 3u);
}

TEST(CycleAccuracy, LoopCycleCountExact) {
  // 4 iterations of: addik (1) + bnei (taken 3 / not-taken 1).
  // Total = 4 * 1 + 3 * 3 + 1 = 14, plus li r3 (imm + addik = 2).
  const Cycle cycles = body_cycles(
      "  li r3, 4\n"
      "loop:\n"
      "  addik r3, r3, -1\n"
      "  bnei r3, loop\n"
      "  halt\n");
  EXPECT_EQ(cycles, 2u + 4u + 3u * 3u + 1u);
}

TEST(CycleAccuracy, InstructionCountMatches) {
  TestMachine m(
      "  li r3, 2\n"
      "loop:\n"
      "  addik r3, r3, -1\n"
      "  bnei r3, loop\n"
      "  halt\n");
  m.run();
  // imm, addik (li), 2x addik, 2x bnei, halt = 7 instructions.
  EXPECT_EQ(m.cpu.stats().instructions, 7u);
}

TEST(CycleAccuracy, FslStallCyclesAreAccounted) {
  TestMachine m("get r3, rfsl0\nhalt\n");
  for (int i = 0; i < 10; ++i) m.cpu.step();
  m.hub.from_hw(0).try_write(1, false);
  m.run();
  EXPECT_EQ(m.cpu.stats().fsl_stall_cycles, 10u);
  // Total: 10 stall + 2 (get) + 3 (halt).
  EXPECT_EQ(m.cpu.stats().cycles, 15u);
}

TEST(CycleAccuracy, TraceHookSeesEveryStepIncludingTheHalt) {
  TestMachine m(
      "  add r3, r0, r0\n"
      "  mul r4, r3, r3\n"
      "  halt\n");
  const std::vector<obs::TraceEvent>& records = m.record_events();
  m.run();
  // Every step reaches the sink — the two body instructions and the
  // final halting branch (which retires and pays its cycles like any
  // other instruction before ending the simulation).
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].pc, 0u);
  EXPECT_EQ(records[0].cycles, 1u);
  EXPECT_EQ(records[0].kind, obs::EventKind::kInstrRetire);
  EXPECT_EQ(records[1].pc, 4u);
  EXPECT_EQ(records[1].cycles, 3u);
  EXPECT_EQ(isa::decode(records[1].raw).op, isa::Op::kMul);
  EXPECT_EQ(records[2].pc, 8u);
  EXPECT_EQ(records[2].kind, obs::EventKind::kInstrHalt);
  EXPECT_EQ(records[2].cycle, m.cpu.stats().cycles);
}

TEST(CycleAccuracy, TraceHookSeesStallsAndIllegal) {
  TestMachine m("get r3, rfsl0\nhalt\n");
  const std::vector<obs::TraceEvent>& records = m.record_events();
  for (int i = 0; i < 3; ++i) m.cpu.step();  // blocked: 3 stall steps
  ASSERT_EQ(records.size(), 3u);
  for (const obs::TraceEvent& r : records) {
    EXPECT_EQ(r.kind, obs::EventKind::kInstrStall);
    EXPECT_EQ(r.pc, 0u);
    EXPECT_EQ(r.cycles, 1u);
  }
  m.hub.from_hw(0).try_write(1, false);
  m.run();
  ASSERT_EQ(records.size(), 5u);  // + get retires, halt
  EXPECT_EQ(records[3].kind, obs::EventKind::kInstrRetire);
  EXPECT_EQ(records[4].kind, obs::EventKind::kInstrHalt);
}

TEST(CycleAccuracy, FetchFaultChargesACycleAndReachesTheHook) {
  TestMachine m("halt\n");
  const std::vector<obs::TraceEvent>& records = m.record_events();
  // Jump the PC outside the 64 KiB LMB BRAM: the fetch faults.
  m.cpu.reset(0x10000);
  const StepResult result = m.cpu.step();
  EXPECT_EQ(result.event, Event::kIllegal);
  EXPECT_EQ(result.cycles, 1u);
  // The faulting fetch consumed a simulated cycle like every other step.
  EXPECT_EQ(m.cpu.stats().cycles, 1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, obs::EventKind::kInstrIllegal);
  EXPECT_EQ(records[0].pc, 0x10000u);
  EXPECT_EQ(records[0].raw, 0u);
}

TEST(CycleAccuracy, StepResultCyclesSumToStatsOnEveryPath) {
  // Mix of retires, FSL stalls, and a final fetch fault: the per-step
  // cycle charges must add up to the aggregate counter exactly.
  TestMachine m(
      "  add r3, r0, r0\n"
      "  get r4, rfsl0\n"
      "  li r5, 0x10000\n"
      "  bra r5\n");  // jump out of memory -> fetch fault
  Cycle summed = 0;
  for (int i = 0; i < 5; ++i) {  // add, then 4 blocked get steps
    summed += m.cpu.step().cycles;
  }
  m.hub.from_hw(0).try_write(9, false);
  for (;;) {
    const StepResult result = m.cpu.step();
    summed += result.cycles;
    if (result.event == Event::kIllegal || result.event == Event::kHalted) {
      break;
    }
  }
  EXPECT_EQ(summed, m.cpu.stats().cycles);
}

TEST(CycleAccuracy, ResetClearsEverything) {
  TestMachine m("li r3, 7\nhalt\n");
  m.run();
  EXPECT_NE(m.cpu.stats().cycles, 0u);
  m.cpu.reset(0);
  EXPECT_EQ(m.cpu.stats().cycles, 0u);
  EXPECT_EQ(m.cpu.reg(3), 0u);
  EXPECT_FALSE(m.cpu.halted());
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 7u);
}

}  // namespace
}  // namespace mbcosim::iss
