// Control-flow tests: branches, delay slots, link/return, halting.
#include <gtest/gtest.h>

#include "iss/test_helpers.hpp"

namespace mbcosim::iss {
namespace {

using testing::TestMachine;

TEST(Branch, UnconditionalSkips) {
  TestMachine m(
      "  bri over\n"
      "  li r3, 1\n"      // skipped
      "over:\n"
      "  li r4, 2\n"
      "  halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 0u);
  EXPECT_EQ(m.cpu.reg(4), 2u);
}

TEST(Branch, ConditionalTakenAndNotTaken) {
  TestMachine m(
      "  li r3, 0\n"
      "  beqi r3, taken\n"
      "  li r4, 99\n"       // skipped
      "taken:\n"
      "  li r5, 1\n"
      "  bnei r3, nottaken\n"  // r3 == 0: falls through
      "  li r6, 2\n"
      "nottaken:\n"
      "  halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(4), 0u);
  EXPECT_EQ(m.cpu.reg(5), 1u);
  EXPECT_EQ(m.cpu.reg(6), 2u);
}

TEST(Branch, AllConditionCodes) {
  TestMachine m(
      "  li r3, -1\n"
      "  addk r10, r0, r0\n"
      "  blti r3, L1\n"
      "  bri fail\n"
      "L1:\n"
      "  addik r10, r10, 1\n"
      "  blei r3, L2\n"
      "  bri fail\n"
      "L2:\n"
      "  addik r10, r10, 1\n"
      "  li r3, 1\n"
      "  bgti r3, L3\n"
      "  bri fail\n"
      "L3:\n"
      "  addik r10, r10, 1\n"
      "  bgei r3, L4\n"
      "  bri fail\n"
      "L4:\n"
      "  addik r10, r10, 1\n"
      "  halt\n"
      "fail:\n"
      "  li r10, 0xdead\n"
      "  halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(10), 4u);
}

TEST(Branch, DelaySlotExecutes) {
  TestMachine m(
      "  li r3, 0\n"
      "  brid over\n"
      "  addik r3, r3, 7\n"  // delay slot: executes
      "  addik r3, r3, 100\n"  // skipped
      "over:\n"
      "  halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 7u);
}

TEST(Branch, ConditionalDelaySlot) {
  TestMachine m(
      "  li r3, 1\n"
      "  li r4, 0\n"
      "  bgtid r3, over\n"
      "  addik r4, r4, 5\n"  // delay slot
      "  addik r4, r4, 100\n"
      "over:\n"
      "  halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(4), 5u);
}

TEST(Branch, NotTakenDelayFormFallsThrough) {
  TestMachine m(
      "  li r3, 1\n"
      "  beqid r3, away\n"   // not taken
      "  addik r4, r4, 1\n"  // executes as a normal instruction
      "  addik r4, r4, 1\n"
      "  halt\n"
      "away:\n"
      "  li r4, 99\n"
      "  halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(4), 2u);
}

TEST(Branch, LinkAndReturn) {
  TestMachine m(
      "  brlid r15, func\n"
      "  nop\n"              // delay slot of the call
      "  li r4, 2\n"         // return lands here (r15 + 8)
      "  halt\n"
      "func:\n"
      "  li r3, 1\n"
      "  rtsd r15, 8\n"
      "  nop\n");            // delay slot of the return
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 1u);
  EXPECT_EQ(m.cpu.reg(4), 2u);
  EXPECT_EQ(m.cpu.reg(15), 0u);  // link = address of the branch itself
}

TEST(Branch, RegisterTargetBranch) {
  TestMachine m(
      "  la r5, target\n"
      "  bra r5\n"           // absolute register branch
      "  li r3, 99\n"
      "target:\n"
      "  li r4, 3\n"
      "  halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 0u);
  EXPECT_EQ(m.cpu.reg(4), 3u);
}

TEST(Branch, AbsoluteImmediateBranch) {
  TestMachine m(
      "  brai 12\n"          // absolute address 12
      "  li r3, 99\n"        // at 4 (skipped; li is 2 words: 4, 8)
      "  li r4, 4\n"         // at 12
      "  halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 0u);
  EXPECT_EQ(m.cpu.reg(4), 4u);
}

TEST(Branch, BranchInDelaySlotIsIllegal) {
  // A branch in a delay slot is architecturally illegal.
  TestMachine m(
      "  brid over\n"
      "  bri 8\n"            // branch in delay slot
      "over:\n"
      "  halt\n");
  EXPECT_EQ(m.run(), core::StopReason::kIllegal);
}

TEST(Branch, HaltStopsAndStaysHalted) {
  TestMachine m("halt\n");
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_TRUE(m.cpu.halted());
  // Further steps are no-ops.
  const StepResult after = m.cpu.step();
  EXPECT_EQ(after.event, Event::kHalted);
  EXPECT_EQ(after.cycles, 0u);
}

TEST(Branch, BranchStatistics) {
  TestMachine m(
      "  li r3, 3\n"
      "loop:\n"
      "  addik r3, r3, -1\n"
      "  bnei r3, loop\n"
      "  halt\n");
  m.run();
  // bnei executes 3 times (2 taken, 1 not) + final halting bri.
  EXPECT_EQ(m.cpu.stats().branches, 4u);
  EXPECT_EQ(m.cpu.stats().branches_taken, 3u);
}

TEST(Branch, FetchOutsideMemoryIsIllegal) {
  // Jump far outside the 64 KiB memory.
  TestMachine m(
      "  li r3, 0x100000\n"
      "  bra r3\n");
  EXPECT_EQ(m.run(), core::StopReason::kIllegal);
}

}  // namespace
}  // namespace mbcosim::iss
