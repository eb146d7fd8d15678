// LMB memory model and load/store semantics, plus OPB bus accesses.
#include <gtest/gtest.h>

#include "bus/opb_bus.hpp"
#include "iss/test_helpers.hpp"

namespace mbcosim::iss {
namespace {

using testing::TestMachine;

TEST(Memory, WordRoundTrip) {
  LmbMemory memory(1024);
  memory.write_word(0x10, 0xCAFEBABE);
  EXPECT_EQ(memory.read_word(0x10), 0xCAFEBABEu);
}

TEST(Memory, ByteAndHalfAccess) {
  LmbMemory memory(1024);
  memory.write_word(0, 0x11223344);
  EXPECT_EQ(memory.read_byte(0), 0x44u);
  EXPECT_EQ(memory.read_byte(3), 0x11u);
  EXPECT_EQ(memory.read_half(0), 0x3344u);
  EXPECT_EQ(memory.read_half(2), 0x1122u);
  memory.write_byte(1, 0xAA);
  EXPECT_EQ(memory.read_word(0), 0x1122AA44u);
  memory.write_half(2, 0xBBCC);
  EXPECT_EQ(memory.read_word(0), 0xBBCCAA44u);
}

TEST(Memory, UnalignedAddressesTruncate) {
  LmbMemory memory(1024);
  memory.write_word(0, 0xAABBCCDD);
  EXPECT_EQ(memory.read_word(2), 0xAABBCCDDu);  // word access ignores A[1:0]
  EXPECT_EQ(memory.read_half(1), 0xCCDDu);      // half ignores A[0]
}

TEST(Memory, OutOfRangeThrows) {
  LmbMemory memory(1024);
  EXPECT_THROW(memory.read_word(1024), SimError);
  EXPECT_THROW(memory.write_word(1024, 0), SimError);
  EXPECT_FALSE(memory.contains(1023, 4));
  EXPECT_TRUE(memory.contains(1020, 4));
}

TEST(Memory, RejectsBadSizes) {
  EXPECT_THROW(LmbMemory(0), SimError);
  EXPECT_THROW(LmbMemory(13), SimError);
}

TEST(Memory, LoadProgramAtOrigin) {
  const auto program = assembler::assemble_or_throw(
      ".org 0x40\nentry: .word 0x12345678\n");
  LmbMemory memory(1024);
  memory.load_program(program);
  EXPECT_EQ(memory.read_word(0x40), 0x12345678u);
}

TEST(LoadStore, WordThroughPointer) {
  TestMachine m(
      "  la r5, buffer\n"
      "  li r3, 0xAABBCCDD\n"
      "  swi r3, r5, 0\n"
      "  lwi r4, r5, 0\n"
      "  halt\n"
      "buffer: .space 4\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(4), 0xAABBCCDDu);
}

TEST(LoadStore, RegisterPlusRegisterAddressing) {
  TestMachine m(
      "  la r5, table\n"
      "  li r6, 8\n"
      "  lw r4, r5, r6\n"  // table[2]
      "  halt\n"
      "table: .word 10, 20, 30\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(4), 30u);
}

TEST(LoadStore, ByteAndHalfInstructions) {
  TestMachine m(
      "  la r5, data\n"
      "  lbui r3, r5, 0\n"
      "  lhui r4, r5, 0\n"
      "  li r6, 0xFF\n"
      "  sbi r6, r5, 3\n"
      "  lwi r7, r5, 0\n"
      "  halt\n"
      "data: .word 0x11223344\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 0x44u);
  EXPECT_EQ(m.cpu.reg(4), 0x3344u);
  EXPECT_EQ(m.cpu.reg(7), 0xFF223344u);
}

TEST(LoadStore, LoadsAreZeroExtended) {
  TestMachine m(
      "  la r5, data\n"
      "  lbui r3, r5, 0\n"
      "  lhui r4, r5, 0\n"
      "  halt\n"
      "data: .word 0x0000FFFF\n");
  m.run();
  EXPECT_EQ(m.cpu.reg(3), 0xFFu);
  EXPECT_EQ(m.cpu.reg(4), 0xFFFFu);
}

TEST(LoadStore, UnalignedWordAccessUsesByteLanes) {
  // MicroBlaze-style LMB semantics: a word access ignores the low two
  // address bits (they select byte lanes, the BRAM row is the same), so
  // an unaligned lw/sw reads/writes the containing aligned word — it
  // does not trap and it does not assemble a misaligned value.
  TestMachine m(
      "  la r5, buffer\n"
      "  li r3, 0xAABBCCDD\n"
      "  swi r3, r5, 2\n"   // store at buffer+2: hits buffer's word
      "  lwi r4, r5, 2\n"   // load at buffer+2: same aligned word back
      "  lwi r6, r5, 0\n"
      "  halt\n"
      "buffer: .word 0x11111111\n"
      "        .word 0x22222222\n");
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_EQ(m.cpu.reg(4), 0xAABBCCDDu);
  EXPECT_EQ(m.cpu.reg(6), 0xAABBCCDDu);  // buffer+0, same word
  // The neighbouring word is untouched: nothing straddled the boundary.
  EXPECT_EQ(m.cpu.reg(5), m.cpu.reg(5) & ~Addr{3});  // buffer is aligned
  EXPECT_EQ(m.memory.read_word(m.cpu.reg(5) + 4), 0x22222222u);
}

TEST(LoadStore, UnalignedHalfAccessIgnoresBitZero) {
  TestMachine m(
      "  la r5, data\n"
      "  lhui r3, r5, 1\n"  // odd address: same halfword as data+0
      "  lhui r4, r5, 0\n"
      "  halt\n"
      "data: .word 0x11223344\n");
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_EQ(m.cpu.reg(3), m.cpu.reg(4));
  EXPECT_EQ(m.cpu.reg(3), 0x3344u);
}

TEST(LoadStore, UnalignedAccessAtMemoryTopDoesNotTrap) {
  // The bounds check runs on the masked (aligned) address: a word
  // access at 0xFFFE in a 64 KiB BRAM is the word at 0xFFFC — in
  // range — not a 2-byte overhang past the end.
  TestMachine m(
      "  li r5, 0xFFFE\n"
      "  li r3, 0x5A5A5A5A\n"
      "  sw r3, r5, r0\n"
      "  lw r4, r5, r0\n"
      "  halt\n");
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_EQ(m.cpu.reg(4), 0x5A5A5A5Au);
  EXPECT_EQ(m.memory.read_word(0xFFFC), 0x5A5A5A5Au);
}

TEST(LoadStore, OutOfRangeAccessTraps) {
  TestMachine m(
      "  li r5, 0x200000\n"
      "  lwi r3, r5, 0\n"
      "  halt\n");
  EXPECT_EQ(m.run(), core::StopReason::kIllegal);
}

TEST(Opb, ProcessorReadsAndWritesPeripheral) {
  TestMachine m(
      "  li r5, 0x80000000\n"
      "  li r3, 42\n"
      "  swi r3, r5, 0\n"
      "  lwi r4, r5, 0\n"
      "  halt\n");
  bus::OpbBus opb;
  opb.map("scratch", 0x80000000u, 64,
          std::make_unique<bus::OpbScratchpad>(16));
  m.cpu.attach_opb(&opb);
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_EQ(m.cpu.reg(4), 42u);
  EXPECT_EQ(opb.transactions(), 2u);
}

TEST(Opb, WaitStatesAreCharged) {
  const char* source =
      "  li r5, 0x80000000\n"
      "  lwi r4, r5, 0\n"
      "  halt\n";
  TestMachine with_opb(source);
  bus::OpbBus opb;
  opb.map("scratch", 0x80000000u, 64,
          std::make_unique<bus::OpbScratchpad>(16));
  with_opb.cpu.attach_opb(&opb);
  with_opb.run();
  EXPECT_EQ(with_opb.cpu.stats().opb_accesses, 1u);
  EXPECT_EQ(with_opb.cpu.stats().opb_wait_cycles, bus::OpbBus::kBusWaitStates);
  // An LMB access of the same shape costs exactly the wait states less.
  TestMachine lmb_only(
      "  la r5, word\n"
      "  lwi r4, r5, 0\n"
      "  halt\n"
      "word: .word 0\n");
  lmb_only.run();
  EXPECT_EQ(with_opb.cpu.stats().cycles,
            lmb_only.cpu.stats().cycles + bus::OpbBus::kBusWaitStates);
}

TEST(Opb, UnmappedAddressTraps) {
  TestMachine m(
      "  li r5, 0x80000000\n"
      "  lwi r4, r5, 0\n"
      "  halt\n");
  bus::OpbBus opb;  // nothing mapped
  m.cpu.attach_opb(&opb);
  EXPECT_EQ(m.run(), core::StopReason::kIllegal);
}

}  // namespace
}  // namespace mbcosim::iss
