// Predecode cache + batched fast path: transparency and invalidation.
//
// At the dbt tier the cache memoizes isa::decode per word address for
// step() and the superblock translator; the contract is that it is
// completely invisible to the architecture — same results, same
// CpuStats, bit for bit — and that guest stores into already-cached text
// (self-modifying code) invalidate the stale entry.
#include <gtest/gtest.h>

#include <string>

#include "iss/test_helpers.hpp"

namespace mbcosim::iss {
namespace {

using testing::TestMachine;

// Run `source` to completion with the predecode cache on (dbt tier) or
// off (precise tier) and return the final statistics (asserting the
// program halted).
CpuStats run_with_predecode(const std::string& source, bool predecode,
                            Word* r3_out = nullptr) {
  TestMachine m(source);
  m.cpu.set_exec_tier(predecode ? ExecTier::kDbt : ExecTier::kPrecise);
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  if (r3_out != nullptr) *r3_out = m.cpu.reg(3);
  return m.cpu.stats();
}

void expect_identical_stats(const CpuStats& fast, const CpuStats& slow) {
  EXPECT_EQ(fast.cycles, slow.cycles);
  EXPECT_EQ(fast.instructions, slow.instructions);
  EXPECT_EQ(fast.loads, slow.loads);
  EXPECT_EQ(fast.stores, slow.stores);
  EXPECT_EQ(fast.branches, slow.branches);
  EXPECT_EQ(fast.branches_taken, slow.branches_taken);
  EXPECT_EQ(fast.multiplies, slow.multiplies);
  EXPECT_EQ(fast.fsl_stall_cycles, slow.fsl_stall_cycles);
}

// A program that stores over an instruction it has already executed and
// runs it again. First pass through `patch` executes `addik r3, r3, 1`;
// the store replaces it with `addik r3, r3, 100`, so the second pass
// must see the new semantics: r3 == 1 + 100 == 101. A stale predecode
// entry would keep executing the old +1 and land on r3 == 2.
std::string self_modifying_program() {
  isa::Instruction patched;
  patched.op = isa::Op::kAddk;
  patched.rd = 3;
  patched.ra = 3;
  patched.imm = 100;
  patched.imm_form = true;
  const Word patch_word = isa::encode(patched);
  return "start:\n"
         "  li r1, " +
         std::to_string(patch_word) +
         "\n"
         "  la r2, patch\n"
         "  li r4, 2\n"
         "loop:\n"
         "patch:\n"
         "  addik r3, r3, 1\n"
         "  sw r1, r2, r0\n"
         "  addik r4, r4, -1\n"
         "  bnei r4, loop\n"
         "  halt\n";
}

TEST(Predecode, SelfModifyingCodeSeesNewSemantics) {
  Word r3 = 0;
  run_with_predecode(self_modifying_program(), true, &r3);
  EXPECT_EQ(r3, 101u);
}

TEST(Predecode, SelfModifyingCodeMatchesUncachedExecution) {
  Word fast_r3 = 0;
  Word slow_r3 = 0;
  const CpuStats fast =
      run_with_predecode(self_modifying_program(), true, &fast_r3);
  const CpuStats slow =
      run_with_predecode(self_modifying_program(), false, &slow_r3);
  EXPECT_EQ(fast_r3, 101u);
  EXPECT_EQ(fast_r3, slow_r3);
  expect_identical_stats(fast, slow);
}

// A mixed workload — taken and not-taken branches, loads/stores, a
// multiply, an IMM-prefixed 32-bit constant — must produce bit-identical
// statistics with the cache on and off.
TEST(Predecode, MixedWorkloadStatsIdentical) {
  const std::string source =
      "start:\n"
      "  li r1, 0x12345678\n"  // IMM prefix path
      "  la r2, buffer\n"
      "  li r4, 10\n"
      "loop:\n"
      "  sw r4, r2, r0\n"
      "  lw r5, r2, r0\n"
      "  mul r6, r5, r4\n"
      "  addik r3, r3, 7\n"
      "  addik r4, r4, -1\n"
      "  bneid r4, loop\n"  // delay-slot branch
      "  xor r7, r7, r5\n"
      "  halt\n"
      "buffer: .space 16\n";
  Word fast_r3 = 0;
  Word slow_r3 = 0;
  const CpuStats fast = run_with_predecode(source, true, &fast_r3);
  const CpuStats slow = run_with_predecode(source, false, &slow_r3);
  EXPECT_EQ(fast_r3, slow_r3);
  expect_identical_stats(fast, slow);
  EXPECT_EQ(fast_r3, 70u);
}

// run() batches only when nothing is observing; an attached trace sink
// must force the precise per-step path (and still halt correctly).
TEST(Predecode, TraceHookDisablesFastPath) {
  TestMachine m(
      "  li r4, 5\n"
      "loop:\n"
      "  addik r3, r3, 2\n"
      "  addik r4, r4, -1\n"
      "  bnei r4, loop\n"
      "  halt\n");
  EXPECT_TRUE(m.cpu.fast_path_available());
  const std::vector<obs::TraceEvent>& steps = m.record_events();
  EXPECT_FALSE(m.cpu.fast_path_available());
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_EQ(steps.size(), m.cpu.stats().instructions);
  EXPECT_EQ(m.cpu.reg(3), 10u);
}

// run_batch must return kFslPending without
// executing the FSL access, so a co-simulation engine can bring the
// hardware to cycle parity first.
TEST(Predecode, RunBatchStopsBeforeFslAccess) {
  TestMachine m(
      "  addik r3, r3, 1\n"
      "  addik r3, r3, 1\n"
      "  put r3, rfsl0\n"
      "  halt\n");
  ASSERT_TRUE(m.cpu.fast_path_available());
  const BatchResult batch = m.cpu.run_batch(1'000'000);
  EXPECT_EQ(batch.stop, BatchStop::kFslPending);
  EXPECT_EQ(m.cpu.stats().instructions, 2u);  // the put did NOT execute
  EXPECT_EQ(m.cpu.reg(3), 2u);
  EXPECT_EQ(m.cpu.stats().fsl_writes, 0u);
}

// Disabling the cache mid-flight (the builder/CLI knob) falls back to
// decode-per-step without disturbing architectural state.
TEST(Predecode, DisableMidRunKeepsExecutingCorrectly) {
  TestMachine m(
      "  li r4, 6\n"
      "loop:\n"
      "  addik r3, r3, 3\n"
      "  addik r4, r4, -1\n"
      "  bnei r4, loop\n"
      "  halt\n");
  // Execute a few steps with the cache warm, then turn it off.
  for (int i = 0; i < 4; ++i) m.cpu.step();
  EXPECT_EQ(m.cpu.exec_tier(), ExecTier::kDbt);
  m.cpu.set_exec_tier(ExecTier::kPrecise);
  EXPECT_EQ(m.cpu.exec_tier(), ExecTier::kPrecise);
  EXPECT_FALSE(m.cpu.fast_path_available());
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_EQ(m.cpu.reg(3), 18u);
}

}  // namespace
}  // namespace mbcosim::iss
