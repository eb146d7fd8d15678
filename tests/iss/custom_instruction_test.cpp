// Tests for Nios-style custom instructions (paper Section I: "the
// customization of the instruction set").
#include <gtest/gtest.h>

#include <bit>

#include "estimate/estimator.hpp"
#include "iss/test_helpers.hpp"

namespace mbcosim::iss {
namespace {

using testing::TestMachine;

CustomInstruction popcount_unit() {
  CustomInstruction unit;
  unit.name = "popcount";
  unit.compute = [](Word a, Word) {
    return static_cast<Word>(std::popcount(a));
  };
  unit.latency = 2;
  unit.resources = ResourceVec{40, 0, 0};
  return unit;
}

TEST(CustomInstruction, ExecutesRegisteredUnit) {
  TestMachine m(
      "  li r3, 0xF0F01234\n"
      "  cust0 r4, r3, r0\n"
      "  halt\n");
  m.cpu.register_custom_instruction(0, popcount_unit());
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_EQ(m.cpu.reg(4), 13u);
}

TEST(CustomInstruction, TwoOperandUnit) {
  TestMachine m(
      "  li r3, 7\n"
      "  li r4, 9\n"
      "  cust3 r5, r3, r4\n"
      "  halt\n");
  CustomInstruction mac;
  mac.name = "mac";
  mac.compute = [](Word a, Word b) { return a * b + 1; };
  m.cpu.register_custom_instruction(3, mac);
  m.run();
  EXPECT_EQ(m.cpu.reg(5), 64u);
}

TEST(CustomInstruction, LatencyIsCharged) {
  const char* source =
      "  cust0 r4, r3, r0\n"
      "  halt\n";
  TestMachine fast(source);
  CustomInstruction one_cycle = popcount_unit();
  one_cycle.latency = 1;
  fast.cpu.register_custom_instruction(0, one_cycle);
  fast.run();

  TestMachine slow(source);
  CustomInstruction five_cycles = popcount_unit();
  five_cycles.latency = 5;
  slow.cpu.register_custom_instruction(0, five_cycles);
  slow.run();

  EXPECT_EQ(slow.cpu.stats().cycles, fast.cpu.stats().cycles + 4);
}

TEST(CustomInstruction, EmptySlotIsIllegal) {
  TestMachine m("cust5 r4, r3, r0\nhalt\n");
  EXPECT_EQ(m.run(), core::StopReason::kIllegal);
}

TEST(CustomInstruction, RegistrationValidation) {
  TestMachine m("halt\n");
  EXPECT_THROW(m.cpu.register_custom_instruction(8, popcount_unit()),
               SimError);
  CustomInstruction no_fn;
  no_fn.name = "empty";
  EXPECT_THROW(m.cpu.register_custom_instruction(0, no_fn), SimError);
  CustomInstruction zero_latency = popcount_unit();
  zero_latency.latency = 0;
  EXPECT_THROW(m.cpu.register_custom_instruction(0, zero_latency), SimError);
}

TEST(CustomInstruction, LookupReturnsRegisteredUnit) {
  TestMachine m("halt\n");
  EXPECT_EQ(m.cpu.custom_instruction(0), nullptr);
  m.cpu.register_custom_instruction(0, popcount_unit());
  ASSERT_NE(m.cpu.custom_instruction(0), nullptr);
  EXPECT_EQ(m.cpu.custom_instruction(0)->name, "popcount");
  EXPECT_EQ(m.cpu.custom_instruction(99), nullptr);
}

TEST(CustomInstruction, R0DestinationDiscarded) {
  TestMachine m(
      "  li r3, 0xFF\n"
      "  cust0 r0, r3, r0\n"
      "  halt\n");
  m.cpu.register_custom_instruction(0, popcount_unit());
  m.run();
  EXPECT_EQ(m.cpu.reg(0), 0u);
}

TEST(CustomInstruction, AssemblerAndDisassemblerAgree) {
  const auto program = assembler::assemble_or_throw("cust7 r1, r2, r3\n");
  EXPECT_EQ(isa::disassemble(program.words[0]), "cust7 r1, r2, r3");
  const auto decoded = isa::decode(program.words[0]);
  EXPECT_EQ(decoded.op, isa::Op::kCustom);
  EXPECT_EQ(decoded.custom_slot, 7);
}

TEST(CustomInstruction, ResourcesFeedEstimator) {
  estimate::SystemDescription system;
  const u32 base = estimate::estimate_system(system).estimated.slices;
  system.custom_instructions.push_back(ResourceVec{40, 0, 1});
  const auto report = estimate::estimate_system(system);
  EXPECT_EQ(report.estimated.slices, base + 40);
  EXPECT_EQ(report.estimated.mult18s, 3u + 1u);
  EXPECT_NE(report.to_string().find("custom instruction"),
            std::string::npos);
}

TEST(CustomInstruction, SpeedsUpPopcountWorkload) {
  // The design trade-off the feature exists for: a software popcount
  // loop vs. one custom instruction.
  const char* kSoftware =
      "  li r3, 0xDEADBEEF\n"
      "  addk r4, r0, r0\n"     // count
      "  li r7, 32\n"
      "sw_loop:\n"
      "  andi r5, r3, 1\n"
      "  addk r4, r4, r5\n"
      "  srl r3, r3\n"
      "  addik r7, r7, -1\n"
      "  bnei r7, sw_loop\n"
      "  halt\n";
  const char* kCustom =
      "  li r3, 0xDEADBEEF\n"
      "  cust0 r4, r3, r0\n"
      "  halt\n";
  TestMachine sw(kSoftware);
  sw.run();
  TestMachine hw(kCustom);
  hw.cpu.register_custom_instruction(0, popcount_unit());
  hw.run();
  EXPECT_EQ(sw.cpu.reg(4), hw.cpu.reg(4));
  EXPECT_GT(sw.cpu.stats().cycles, 10 * hw.cpu.stats().cycles);
}

}  // namespace
}  // namespace mbcosim::iss
