// Cross-validation of the RTL soft-processor model against the ISS:
// random ALU programs and targeted control-flow programs must produce
// identical architectural state AND identical cycle counts (the paper's
// cycle-accuracy requirement, Section I).
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "iss/test_helpers.hpp"
#include "rtlmodels/system_rtl.hpp"

namespace mbcosim::rtlmodels {
namespace {

/// Run one program on both simulators and compare everything.
void cross_validate(const std::string& source,
                    isa::CpuConfig config =
                        iss::testing::TestMachine::make_default_config()) {
  // High-level ISS.
  iss::testing::TestMachine hl(source, config);
  const core::StopReason hl_reason = hl.run();

  // Low-level RTL model.
  const auto program = assembler::assemble_or_throw(source);
  RtlSystem rtl(program, config, RtlPeripheralConfig{});
  const RtlStopReason rtl_reason = rtl.run(2'000'000);

  if (hl_reason == core::StopReason::kHalted) {
    ASSERT_EQ(rtl_reason, RtlStopReason::kHalted) << source;
  } else if (hl_reason == core::StopReason::kIllegal) {
    ASSERT_EQ(rtl_reason, RtlStopReason::kIllegal) << source;
  }
  EXPECT_EQ(rtl.cycles(), hl.cpu.stats().cycles) << "cycle-count mismatch";
  EXPECT_EQ(rtl.core().instructions_retired(), hl.cpu.stats().instructions);
  for (unsigned reg = 0; reg < isa::kNumRegisters; ++reg) {
    ASSERT_EQ(rtl.core().reg_value(reg), hl.cpu.reg(reg))
        << "r" << reg << " differs";
  }
  EXPECT_EQ(rtl.core().msr_value(), hl.cpu.msr());
}

TEST(CoreRtl, AluBasics) {
  cross_validate(
      "  li r3, 100\n"
      "  li r4, -3\n"
      "  add r5, r3, r4\n"
      "  rsub r6, r4, r3\n"
      "  mul r7, r3, r4\n"
      "  and r8, r3, r4\n"
      "  or r9, r3, r4\n"
      "  xor r10, r3, r4\n"
      "  andn r11, r3, r4\n"
      "  cmp r12, r3, r4\n"
      "  cmpu r13, r3, r4\n"
      "  halt\n");
}

TEST(CoreRtl, CarryChainOps) {
  cross_validate(
      "  li r3, 0xFFFFFFFF\n"
      "  li r4, 1\n"
      "  add r5, r3, r4\n"
      "  addc r6, r4, r4\n"
      "  addk r7, r3, r4\n"
      "  rsubc r8, r4, r3\n"
      "  sra r9, r3\n"
      "  src r10, r4\n"
      "  srl r11, r3\n"
      "  halt\n");
}

TEST(CoreRtl, ShiftsAndExtensions) {
  cross_validate(
      "  li r3, 0x8000FF80\n"
      "  li r4, 7\n"
      "  bsll r5, r3, r4\n"
      "  bsra r6, r3, r4\n"
      "  bsrl r7, r3, r4\n"
      "  bsrai r8, r3, 12\n"
      "  sext8 r9, r3\n"
      "  sext16 r10, r3\n"
      "  halt\n");
}

TEST(CoreRtl, Divider) {
  cross_validate(
      "  li r3, -7\n"
      "  li r4, 1000\n"
      "  idiv r5, r3, r4\n"
      "  idivu r6, r3, r4\n"
      "  idiv r7, r0, r4\n"   // divide by zero
      "  halt\n");
}

TEST(CoreRtl, LoadsAndStores) {
  cross_validate(
      "  la r5, buffer\n"
      "  li r3, 0xA1B2C3D4\n"
      "  swi r3, r5, 0\n"
      "  lwi r4, r5, 0\n"
      "  lbui r6, r5, 1\n"
      "  lhui r7, r5, 2\n"
      "  sbi r3, r5, 4\n"
      "  shi r3, r5, 8\n"
      "  lwi r8, r5, 4\n"
      "  lwi r9, r5, 8\n"
      "  halt\n"
      "buffer: .space 16\n");
}

TEST(CoreRtl, BranchesAndLoops) {
  cross_validate(
      "  li r3, 5\n"
      "  addk r4, r0, r0\n"
      "loop:\n"
      "  addk r4, r4, r3\n"
      "  addik r3, r3, -1\n"
      "  bnei r3, loop\n"
      "  bri over\n"
      "  li r5, 99\n"
      "over:\n"
      "  halt\n");
}

TEST(CoreRtl, DelaySlotsAndCalls) {
  cross_validate(
      "  brlid r15, func\n"
      "  addk r3, r0, r0\n"
      "  li r4, 2\n"
      "  halt\n"
      "func:\n"
      "  li r5, 1\n"
      "  rtsd r15, 8\n"
      "  addik r6, r0, 77\n");
}

TEST(CoreRtl, MsrAccess) {
  cross_validate(
      "  li r3, 1\n"
      "  mts rmsr, r3\n"
      "  mfs r4, rmsr\n"
      "  mfs r5, rpc\n"
      "  halt\n");
}

TEST(CoreRtl, IllegalOpcodeMatches) {
  cross_validate("  .word 0xFC000000\n");
}

TEST(CoreRtl, ImmPrefixBehaviour) {
  cross_validate(
      "  imm 0x7FFF\n"
      "  addik r3, r0, -1\n"
      "  imm 0x8000\n"
      "  ori r4, r0, 0x1234\n"
      "  addik r5, r0, 0x100\n"  // no prefix: sign-extended
      "  halt\n");
}

class RandomProgramCrossValidation : public ::testing::TestWithParam<u64> {};

TEST_P(RandomProgramCrossValidation, IdenticalStateAndCycles) {
  Rng rng(GetParam());
  // Random straight-line ALU program over registers r1..r15.
  std::string source;
  for (unsigned reg = 1; reg <= 6; ++reg) {
    source += "li r" + std::to_string(reg) + ", " +
              std::to_string(static_cast<i64>(rng.next_u32())) + "\n";
  }
  static constexpr const char* kTemplates[] = {
      "add", "rsub", "addk", "rsubk", "addc", "mul", "or", "and", "xor",
      "andn", "bsll", "bsra", "bsrl", "cmp", "cmpu",
  };
  for (int i = 0; i < 50; ++i) {
    const char* op = kTemplates[rng.next_below(std::size(kTemplates))];
    const unsigned rd = 1 + unsigned(rng.next_below(15));
    const unsigned ra = 1 + unsigned(rng.next_below(15));
    unsigned rb = 1 + unsigned(rng.next_below(15));
    if (std::string(op).rfind("bs", 0) == 0) {
      // keep shift amounts sane by masking through a small register
      source += "andi r" + std::to_string(rb) + ", r" + std::to_string(rb) +
                ", 31\n";
    }
    source += std::string(op) + " r" + std::to_string(rd) + ", r" +
              std::to_string(ra) + ", r" + std::to_string(rb) + "\n";
  }
  source += "halt\n";
  cross_validate(source);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramCrossValidation,
                         ::testing::Values(7u, 14u, 21u, 28u, 35u, 42u));

}  // namespace
}  // namespace mbcosim::rtlmodels
