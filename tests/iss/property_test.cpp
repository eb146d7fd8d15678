// Property-based ISS tests: random straight-line ALU programs are
// executed on the ISS and compared against a direct host-side evaluation
// of the same operation sequence.
#include <gtest/gtest.h>

#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "iss/test_helpers.hpp"

namespace mbcosim::iss {
namespace {

/// Host-side mirror of the ALU subset used by the generator.
struct HostState {
  Word regs[32] = {};
  bool carry = false;

  void apply(const isa::Instruction& in) {
    using isa::Op;
    const Word a = regs[in.ra];
    const Word b = in.imm_form ? static_cast<Word>(in.imm) : regs[in.rb];
    Word result = 0;
    switch (in.op) {
      case Op::kAdd: {
        const u64 sum = u64(a) + u64(b);
        result = static_cast<Word>(sum);
        carry = (sum >> 32) != 0;
        break;
      }
      case Op::kAddk:
        result = a + b;
        break;
      case Op::kRsubk:
        result = b - a;
        break;
      case Op::kMul:
        result = a * b;
        break;
      case Op::kOr:
        result = a | b;
        break;
      case Op::kAnd:
        result = a & b;
        break;
      case Op::kXor:
        result = a ^ b;
        break;
      case Op::kAndn:
        result = a & ~b;
        break;
      case Op::kBsll:
        result = a << (b & 31);
        break;
      case Op::kBsrl:
        result = a >> (b & 31);
        break;
      case Op::kBsra:
        result = static_cast<Word>(static_cast<i32>(a) >> (b & 31));
        break;
      case Op::kSext8:
        result = sign_extend(a, 8);
        break;
      case Op::kSext16:
        result = sign_extend(a, 16);
        break;
      default:
        FAIL() << "generator produced unexpected op";
    }
    if (in.rd != 0) regs[in.rd] = result;
  }
};

isa::Instruction random_alu_instruction(Rng& rng) {
  using isa::Op;
  static constexpr Op kOps[] = {Op::kAdd,  Op::kAddk, Op::kRsubk, Op::kMul,
                                Op::kOr,   Op::kAnd,  Op::kXor,   Op::kAndn,
                                Op::kBsll, Op::kBsrl, Op::kBsra,  Op::kSext8,
                                Op::kSext16};
  isa::Instruction in;
  in.op = kOps[rng.next_below(std::size(kOps))];
  in.rd = static_cast<u8>(rng.next_below(32));
  in.ra = static_cast<u8>(rng.next_below(32));
  const bool sext = in.op == Op::kSext8 || in.op == Op::kSext16;
  const bool shift = in.op == Op::kBsll || in.op == Op::kBsrl ||
                     in.op == Op::kBsra;
  if (!sext && rng.next_below(2) == 0) {
    in.imm_form = true;
    in.imm = shift ? static_cast<i32>(rng.next_below(32))
                   : static_cast<i32>(rng.next_in(-32768, 32767));
  } else if (!sext) {
    in.rb = static_cast<u8>(rng.next_below(32));
  }
  return in;
}

class RandomAluPrograms : public ::testing::TestWithParam<u64> {};

TEST_P(RandomAluPrograms, IssMatchesHostEvaluation) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    // Build a random straight-line program.
    std::vector<isa::Instruction> body;
    for (int i = 0; i < 60; ++i) body.push_back(random_alu_instruction(rng));

    assembler::Program program;
    // Seed registers r1..r7 with random values via imm pairs.
    HostState host;
    std::string source;
    for (unsigned reg = 1; reg <= 7; ++reg) {
      const Word seed_value = rng.next_u32();
      source += "li r" + std::to_string(reg) + ", " +
                std::to_string(static_cast<i64>(seed_value)) + "\n";
      host.regs[reg] = seed_value;
    }
    for (const auto& in : body) {
      source += isa::disassemble(in) + "\n";
      host.apply(in);
    }
    source += "halt\n";

    testing::TestMachine machine(source);
    ASSERT_EQ(machine.run(), core::StopReason::kHalted) << source;
    for (unsigned reg = 0; reg < 32; ++reg) {
      ASSERT_EQ(machine.cpu.reg(reg), host.regs[reg])
          << "r" << reg << " mismatch, seed=" << GetParam()
          << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAluPrograms,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                           88u));

TEST(Invariants, R0NeverChanges) {
  Rng rng(1234);
  std::string source;
  for (int i = 0; i < 100; ++i) {
    isa::Instruction in = random_alu_instruction(rng);
    in.rd = 0;  // every write targets r0
    source += isa::disassemble(in) + "\n";
  }
  source += "halt\n";
  testing::TestMachine machine(source);
  machine.run();
  EXPECT_EQ(machine.cpu.reg(0), 0u);
}

TEST(Invariants, CycleCountEqualsSumOfLatencies) {
  Rng rng(4321);
  std::string source;
  Cycle expected = 0;
  for (int i = 0; i < 80; ++i) {
    const isa::Instruction in = random_alu_instruction(rng);
    source += isa::disassemble(in) + "\n";
    expected += isa::base_latency(in, false);
  }
  source += "halt\n";
  expected += 3;  // the halting branch
  testing::TestMachine machine(source);
  machine.run();
  EXPECT_EQ(machine.cpu.stats().cycles, expected);
}

}  // namespace
}  // namespace mbcosim::iss
