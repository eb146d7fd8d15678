// Per-instruction semantic tests for the ALU, shifter, multiplier and
// special-register operations of the cycle-accurate ISS.
#include <gtest/gtest.h>

#include "iss/test_helpers.hpp"

namespace mbcosim::iss {
namespace {

using testing::TestMachine;

TEST(Alu, AddAndCarryOut) {
  TestMachine m(
      "li r3, 0xFFFFFFFF\n"
      "li r4, 1\n"
      "add r5, r3, r4\n"
      "halt\n");
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_EQ(m.cpu.reg(5), 0u);
  EXPECT_EQ(m.cpu.msr() & isa::Msr::kCarry, isa::Msr::kCarry);
}

TEST(Alu, AddkKeepsCarry) {
  TestMachine m(
      "li r3, 0xFFFFFFFF\n"
      "li r4, 1\n"
      "add r5, r3, r4\n"    // sets carry
      "addk r6, r4, r4\n"   // must not clear it
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(6), 2u);
  EXPECT_EQ(m.cpu.msr() & isa::Msr::kCarry, isa::Msr::kCarry);
}

TEST(Alu, AddcUsesCarryIn) {
  TestMachine m(
      "li r3, 0xFFFFFFFF\n"
      "li r4, 1\n"
      "add r5, r3, r4\n"    // carry = 1
      "addc r6, r4, r4\n"   // 1 + 1 + carry = 3
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(6), 3u);
}

TEST(Alu, RsubComputesBMinusA) {
  TestMachine m(
      "li r3, 10\n"
      "li r4, 3\n"
      "rsub r5, r4, r3\n"   // rd = rb - ra = 10 - 3
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(5), 7u);
}

TEST(Alu, RsubNegativeResultWraps) {
  TestMachine m(
      "li r3, 3\n"
      "li r4, 10\n"
      "rsub r5, r4, r3\n"   // 3 - 10 = -7
      "halt\n");
  m.run();
  EXPECT_EQ(static_cast<i32>(m.cpu.reg(5)), -7);
}

TEST(Alu, AddiSignExtendsImmediate) {
  TestMachine m(
      "li r3, 100\n"
      "addi r5, r3, -1\n"
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(5), 99u);
}

TEST(Alu, ImmPrefixBuilds32BitImmediate) {
  TestMachine m(
      "imm 0x1234\n"
      "addik r3, r0, 0x5678\n"
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 0x12345678u);
}

TEST(Alu, ImmPrefixOnlyAffectsNextInstruction) {
  TestMachine m(
      "imm 0x1234\n"
      "addik r3, r0, 0\n"     // consumes the prefix
      "addik r4, r0, 0x10\n"  // plain sign-extended immediate
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 0x12340000u);
  EXPECT_EQ(m.cpu.reg(4), 0x10u);
}

TEST(Alu, CmpSignedSetsMsb) {
  TestMachine m(
      "li r3, 5\n"           // ra
      "li r4, -7\n"          // rb
      "cmp r5, r3, r4\n"     // rb < ra (signed) -> MSB set
      "cmp r6, r4, r3\n"     // rb > ra -> MSB clear
      "halt\n");
  m.run();
  EXPECT_TRUE((m.cpu.reg(5) & 0x80000000u) != 0);
  EXPECT_TRUE((m.cpu.reg(6) & 0x80000000u) == 0);
}

TEST(Alu, CmpuUnsigned) {
  TestMachine m(
      "li r3, 0xFFFFFFFF\n"  // ra: large unsigned
      "li r4, 1\n"           // rb
      "cmpu r5, r3, r4\n"    // rb < ra (unsigned) -> MSB set
      "cmpu r6, r4, r3\n"    // rb > ra -> clear
      "halt\n");
  m.run();
  EXPECT_TRUE((m.cpu.reg(5) & 0x80000000u) != 0);
  EXPECT_TRUE((m.cpu.reg(6) & 0x80000000u) == 0);
}

TEST(Alu, MultiplyLow32) {
  TestMachine m(
      "li r3, 100000\n"
      "li r4, 100000\n"
      "mul r5, r3, r4\n"   // 10^10 wraps mod 2^32
      "muli r6, r3, -3\n"
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(5), static_cast<Word>(100000ull * 100000ull));
  EXPECT_EQ(static_cast<i32>(m.cpu.reg(6)), -300000);
}

TEST(Alu, DividerSignedAndUnsigned) {
  TestMachine m(
      "li r3, -3\n"
      "li r4, 100\n"
      "idiv r5, r3, r4\n"    // rd = rb / ra = 100 / -3
      "li r6, 7\n"
      "idivu r7, r6, r4\n"   // 100 / 7
      "halt\n");
  m.run();
  EXPECT_EQ(static_cast<i32>(m.cpu.reg(5)), -33);
  EXPECT_EQ(m.cpu.reg(7), 14u);
}

TEST(Alu, DivideByZeroYieldsZero) {
  TestMachine m(
      "li r4, 100\n"
      "idiv r5, r0, r4\n"
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(5), 0u);
}

TEST(Alu, BarrelShifts) {
  TestMachine m(
      "li r3, 0x80000000\n"
      "li r4, 4\n"
      "bsrl r5, r3, r4\n"    // logical
      "bsra r6, r3, r4\n"    // arithmetic
      "bslli r7, r4, 28\n"   // left immediate
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(5), 0x08000000u);
  EXPECT_EQ(m.cpu.reg(6), 0xF8000000u);
  EXPECT_EQ(m.cpu.reg(7), 0x40000000u);
}

TEST(Alu, BarrelShiftAmountMasksToFiveBits) {
  TestMachine m(
      "li r3, 16\n"
      "li r4, 33\n"          // 33 & 31 = 1
      "bsrl r5, r3, r4\n"
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(5), 8u);
}

TEST(Alu, LogicalOps) {
  TestMachine m(
      "li r3, 0xF0F0F0F0\n"
      "li r4, 0x0FF00FF0\n"
      "or r5, r3, r4\n"
      "and r6, r3, r4\n"
      "xor r7, r3, r4\n"
      "andn r8, r3, r4\n"
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(5), 0xFFF0FFF0u);
  EXPECT_EQ(m.cpu.reg(6), 0x00F000F0u);
  EXPECT_EQ(m.cpu.reg(7), 0xFF00FF00u);
  EXPECT_EQ(m.cpu.reg(8), 0xF000F000u);
}

TEST(Alu, SingleBitShiftsAndCarry) {
  TestMachine m(
      "li r3, 5\n"
      "sra r4, r3\n"      // 2, carry = 1
      "addc r5, r0, r0\n" // captures the carry
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(4), 2u);
  EXPECT_EQ(m.cpu.reg(5), 1u);
}

TEST(Alu, SraKeepsSign) {
  TestMachine m(
      "li r3, -8\n"
      "sra r4, r3\n"
      "halt\n");
  m.run();
  EXPECT_EQ(static_cast<i32>(m.cpu.reg(4)), -4);
}

TEST(Alu, SrcShiftsCarryIn) {
  TestMachine m(
      "li r3, 1\n"
      "srl r4, r3\n"      // result 0, carry = 1
      "li r5, 0\n"
      "src r6, r5\n"      // 0 >> 1 with carry in MSB
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(6), 0x80000000u);
}

TEST(Alu, SignExtension) {
  TestMachine m(
      "li r3, 0x80\n"
      "sext8 r4, r3\n"
      "li r5, 0x8000\n"
      "sext16 r6, r5\n"
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(4), 0xFFFFFF80u);
  EXPECT_EQ(m.cpu.reg(6), 0xFFFF8000u);
}

TEST(Alu, R0IsAlwaysZero) {
  TestMachine m(
      "li r3, 55\n"
      "add r0, r3, r3\n"   // write to r0 is discarded
      "add r4, r0, r0\n"
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(0), 0u);
  EXPECT_EQ(m.cpu.reg(4), 0u);
}

TEST(Alu, MsrReadWrite) {
  TestMachine m(
      "li r3, 1\n"
      "mts rmsr, r3\n"       // set carry via MSR write
      "mfs r4, rmsr\n"
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(4), 1u);
}

TEST(Alu, MfsPcReadsProgramCounter) {
  TestMachine m(
      "nop\n"
      "mfs r3, rpc\n"    // at address 4
      "halt\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 4u);
}

TEST(Alu, DisabledMultiplierTrapsAsIllegal) {
  isa::CpuConfig config = TestMachine::make_default_config();
  config.has_multiplier = false;
  TestMachine m("mul r3, r4, r5\nhalt\n", config);
  EXPECT_EQ(m.run(), core::StopReason::kIllegal);
  EXPECT_TRUE(m.cpu.halted());
  EXPECT_EQ(m.cpu.stats().instructions, 0u);  // nothing retired
}

TEST(Alu, DisabledBarrelShifterTrapsAsIllegal) {
  isa::CpuConfig config = TestMachine::make_default_config();
  config.has_barrel_shifter = false;
  TestMachine m("bslli r3, r4, 2\nhalt\n", config);
  m.run();
  EXPECT_TRUE(m.cpu.halted());
  EXPECT_EQ(m.cpu.stats().instructions, 0u);
}

TEST(Alu, DisabledDividerTrapsAsIllegal) {
  isa::CpuConfig config = TestMachine::make_default_config();
  config.has_divider = false;
  TestMachine m("idiv r3, r4, r5\nhalt\n", config);
  m.run();
  EXPECT_TRUE(m.cpu.halted());
  EXPECT_EQ(m.cpu.stats().instructions, 0u);
}

}  // namespace
}  // namespace mbcosim::iss
