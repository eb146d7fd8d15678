// FSL instruction semantics on the ISS: blocking/non-blocking get/put,
// control-bit handling, stalling (paper Section III-B).
#include <gtest/gtest.h>

#include "iss/test_helpers.hpp"

namespace mbcosim::iss {
namespace {

using testing::TestMachine;

TEST(Fsl, PutWritesChannel) {
  TestMachine m(
      "  li r3, 123\n"
      "  put r3, rfsl0\n"
      "  cput r3, rfsl1\n"
      "  halt\n");
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  auto word0 = m.hub.to_hw(0).try_read();
  ASSERT_TRUE(word0.has_value());
  EXPECT_EQ(word0->data, 123u);
  EXPECT_FALSE(word0->control);
  auto word1 = m.hub.to_hw(1).try_read();
  ASSERT_TRUE(word1.has_value());
  EXPECT_TRUE(word1->control);
}

TEST(Fsl, GetReadsChannel) {
  TestMachine m(
      "  get r3, rfsl2\n"
      "  halt\n");
  m.hub.from_hw(2).try_write(777, false);
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 777u);
}

TEST(Fsl, BlockingGetStallsUntilData) {
  TestMachine m(
      "  get r3, rfsl0\n"
      "  halt\n");
  // Step a few times: the processor must stall in place.
  for (int i = 0; i < 5; ++i) {
    const StepResult r = m.cpu.step();
    EXPECT_EQ(r.event, Event::kFslStall);
    EXPECT_EQ(r.cycles, 1u);
    EXPECT_EQ(m.cpu.pc(), 0u);
  }
  EXPECT_EQ(m.cpu.stats().fsl_stall_cycles, 5u);
  m.hub.from_hw(0).try_write(9, false);
  EXPECT_EQ(m.cpu.step().event, Event::kRetired);
  EXPECT_EQ(m.cpu.reg(3), 9u);
}

TEST(Fsl, BlockingPutStallsWhenFull) {
  TestMachine m(
      "  li r3, 5\n"
      "  put r3, rfsl0\n"
      "  halt\n");
  auto& channel = m.hub.to_hw(0);
  while (!channel.full()) channel.try_write(0, false);
  m.cpu.step();  // imm
  m.cpu.step();  // addik
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(m.cpu.step().event, Event::kFslStall);
  }
  (void)channel.try_read();  // make room
  EXPECT_EQ(m.cpu.step().event, Event::kRetired);
}

TEST(Fsl, NonBlockingGetSetsCarryOnEmpty) {
  TestMachine m(
      "  nget r3, rfsl0\n"   // empty -> carry set, r3 unchanged
      "  addc r4, r0, r0\n"  // r4 = carry
      "  halt\n");
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_EQ(m.cpu.reg(4), 1u);
}

TEST(Fsl, NonBlockingGetClearsCarryOnSuccess) {
  TestMachine m(
      "  nget r3, rfsl0\n"
      "  addc r4, r0, r0\n"
      "  halt\n");
  m.hub.from_hw(0).try_write(55, false);
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 55u);
  EXPECT_EQ(m.cpu.reg(4), 0u);
}

TEST(Fsl, NonBlockingPutSetsCarryWhenFull) {
  TestMachine m(
      "  li r3, 1\n"
      "  nput r3, rfsl0\n"
      "  addc r4, r0, r0\n"
      "  halt\n");
  auto& channel = m.hub.to_hw(0);
  while (!channel.full()) channel.try_write(0, false);
  m.run();
  EXPECT_EQ(m.cpu.reg(4), 1u);
}

TEST(Fsl, ControlBitMismatchSetsFslError) {
  TestMachine m(
      "  get r3, rfsl0\n"   // expects data word
      "  halt\n");
  m.hub.from_hw(0).try_write(1, /*control=*/true);  // control word arrives
  m.run();
  EXPECT_NE(m.cpu.msr() & isa::Msr::kFslError, 0u);
}

TEST(Fsl, ControlGetMatchesControlWord) {
  TestMachine m(
      "  cget r3, rfsl0\n"
      "  halt\n");
  m.hub.from_hw(0).try_write(1, /*control=*/true);
  m.run();
  EXPECT_EQ(m.cpu.msr() & isa::Msr::kFslError, 0u);
}

TEST(Fsl, AccessWithoutHubIsIllegal) {
  const auto program = assembler::assemble_or_throw("get r3, rfsl0\nhalt\n");
  LmbMemory memory(4096);
  memory.load_program(program);
  Processor cpu(TestMachine::make_default_config(), memory, nullptr);
  cpu.reset(0);
  EXPECT_EQ(cpu.step().event, Event::kIllegal);
}

TEST(Fsl, ChannelAboveConfiguredLinksIsIllegal) {
  isa::CpuConfig config = TestMachine::make_default_config();
  config.fsl_links = 2;
  TestMachine m("get r3, rfsl5\nhalt\n", config);
  EXPECT_EQ(m.run(), core::StopReason::kIllegal);
}

TEST(Fsl, StatisticsCountReadsAndWrites) {
  TestMachine m(
      "  li r3, 1\n"
      "  put r3, rfsl0\n"
      "  put r3, rfsl0\n"
      "  get r4, rfsl1\n"
      "  halt\n");
  m.hub.from_hw(1).try_write(7, false);
  m.run();
  EXPECT_EQ(m.cpu.stats().fsl_writes, 2u);
  EXPECT_EQ(m.cpu.stats().fsl_reads, 1u);
}

}  // namespace
}  // namespace mbcosim::iss
