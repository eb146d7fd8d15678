// Superblock translation tier: transparency, promotion and retirement.
//
// The dbt tier stitches hot basic blocks from the predecode cache into
// threaded code. Its contract extends the predecode contract one level
// up: architectural state and CpuStats stay bit-identical across all
// three execution tiers, and a guest store into any word covered by a
// translated superblock retires the stale translation (DESIGN.md §12).
#include <gtest/gtest.h>

#include <string>

#include "iss/test_helpers.hpp"

namespace mbcosim::iss {
namespace {

using testing::TestMachine;

// Run `source` to completion under `tier` and return the final CpuStats
// (asserting the program halted). Optional out-params expose r3 and the
// dbt counters for the callers that check the translation machinery.
CpuStats run_with_tier(const std::string& source, ExecTier tier,
                       Word* r3_out = nullptr, DbtStats* dbt_out = nullptr) {
  TestMachine m(source);
  m.cpu.set_exec_tier(tier);
  const Event event = m.run();
  EXPECT_EQ(event, Event::kHalted);
  if (r3_out != nullptr) *r3_out = m.cpu.reg(3);
  if (dbt_out != nullptr) *dbt_out = m.cpu.dbt_stats();
  return m.cpu.stats();
}

void expect_identical_stats(const CpuStats& a, const CpuStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.branches, b.branches);
  EXPECT_EQ(a.branches_taken, b.branches_taken);
  EXPECT_EQ(a.multiplies, b.multiplies);
  EXPECT_EQ(a.fsl_stall_cycles, b.fsl_stall_cycles);
}

// A loop hot enough to cross the promotion threshold, with loads,
// stores, a multiply, an IMM-prefixed constant and a delay-slot branch
// so every handler family gets exercised through the threaded code.
const char* hot_mixed_program() {
  return "start:\n"
         "  li r1, 0x12345678\n"  // IMM prefix path
         "  la r2, buffer\n"
         "  li r4, 50\n"
         "loop:\n"
         "  sw r4, r2, r0\n"
         "  lw r5, r2, r0\n"
         "  mul r6, r5, r4\n"
         "  addik r3, r3, 7\n"
         "  addik r4, r4, -1\n"
         "  bneid r4, loop\n"  // delay-slot branch: block exit + precise slot
         "  xor r7, r7, r5\n"
         "  halt\n"
         "buffer: .space 16\n";
}

TEST(Dbt, TierIdentityOnMixedWorkload) {
  Word r3[3] = {0, 0, 0};
  const CpuStats precise =
      run_with_tier(hot_mixed_program(), ExecTier::kPrecise, &r3[0]);
  const CpuStats predecode =
      run_with_tier(hot_mixed_program(), ExecTier::kPredecode, &r3[1]);
  DbtStats dbt_counters;
  const CpuStats dbt = run_with_tier(hot_mixed_program(), ExecTier::kDbt,
                                     &r3[2], &dbt_counters);
  expect_identical_stats(dbt, precise);
  expect_identical_stats(predecode, precise);
  EXPECT_EQ(r3[0], 350u);
  EXPECT_EQ(r3[1], r3[0]);
  EXPECT_EQ(r3[2], r3[0]);
  // The loop is hot, so the dbt tier must actually have engaged.
  EXPECT_GE(dbt_counters.blocks_translated, 1u);
  EXPECT_GE(dbt_counters.block_dispatches, 1u);
  EXPECT_GT(dbt_counters.dbt_instructions, 0u);
  EXPECT_LE(dbt_counters.dbt_instructions, dbt.instructions);
}

// Straight-line code that executes once never reaches the promotion
// threshold: the tier stays cold and charges no translation work.
TEST(Dbt, ColdCodeIsNeverTranslated) {
  DbtStats counters;
  Word r3 = 0;
  run_with_tier(
      "  addik r3, r3, 5\n"
      "  addik r3, r3, 6\n"
      "  halt\n",
      ExecTier::kDbt, &r3, &counters);
  EXPECT_EQ(r3, 11u);
  EXPECT_EQ(counters.blocks_translated, 0u);
  EXPECT_EQ(counters.block_dispatches, 0u);
  EXPECT_EQ(counters.dbt_instructions, 0u);
}

// Below the dbt tier the machinery is off and its counters stay zero.
TEST(Dbt, CountersZeroBelowDbtTier) {
  DbtStats counters;
  run_with_tier(hot_mixed_program(), ExecTier::kPredecode, nullptr,
                &counters);
  EXPECT_EQ(counters.blocks_translated, 0u);
  EXPECT_EQ(counters.block_dispatches, 0u);
  EXPECT_EQ(counters.smc_retirements, 0u);
  EXPECT_EQ(counters.dbt_instructions, 0u);
}

// Self-modifying code: make a loop hot (translated), then store into
// the *middle* of the translated superblock and re-enter it. The store
// must retire the translation so the re-entry sees the new semantics.
//
// First pass: 20 iterations of `addik r3, r3, 1` -> r3 == 20. The store
// rewrites that instruction to `addik r3, r3, 100`; the second pass
// runs 2 more iterations -> r3 == 20 + 200 == 220. A stale superblock
// would keep adding 1 and land on 22.
std::string smc_into_hot_block_program() {
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
         "  li r5, 1\n"  // one patch pass allowed
         "  li r4, 20\n"
         "loop:\n"
         "  addik r6, r6, 1\n"  // block head; patch lands *after* it
         "patch:\n"
         "  addik r3, r3, 1\n"
         "  addik r4, r4, -1\n"
         "  bnei r4, loop\n"
         "  beqi r5, done\n"
         "  addik r5, r5, -1\n"
         "  sw r1, r2, r0\n"  // store into the translated loop body
         "  li r4, 2\n"
         "  bri loop\n"
         "done:\n"
         "  halt\n";
}

TEST(Dbt, SmcStoreIntoTranslatedBlockRetiresIt) {
  Word r3 = 0;
  DbtStats counters;
  run_with_tier(smc_into_hot_block_program(), ExecTier::kDbt, &r3,
                &counters);
  EXPECT_EQ(r3, 220u);
  EXPECT_GE(counters.blocks_translated, 1u);
  EXPECT_GE(counters.smc_retirements, 1u);
}

TEST(Dbt, SmcProgramIdenticalAcrossTiers) {
  Word precise_r3 = 0;
  Word dbt_r3 = 0;
  const std::string source = smc_into_hot_block_program();
  const CpuStats precise =
      run_with_tier(source, ExecTier::kPrecise, &precise_r3);
  const CpuStats dbt = run_with_tier(source, ExecTier::kDbt, &dbt_r3);
  EXPECT_EQ(precise_r3, 220u);
  EXPECT_EQ(dbt_r3, precise_r3);
  expect_identical_stats(dbt, precise);
}

// Dropping the tier mid-flight retires every superblock and continues
// executing correctly on the lower tier (the builder/CLI knob).
TEST(Dbt, TierDowngradeMidRunKeepsExecutingCorrectly) {
  TestMachine m(
      "  li r4, 40\n"
      "loop:\n"
      "  addik r3, r3, 3\n"
      "  addik r4, r4, -1\n"
      "  bnei r4, loop\n"
      "  halt\n");
  ASSERT_EQ(m.cpu.exec_tier(), ExecTier::kDbt);
  // Warm the loop well past the promotion threshold, then downgrade.
  for (int i = 0; i < 60; ++i) m.cpu.step();
  m.cpu.set_exec_tier(ExecTier::kPredecode);
  EXPECT_EQ(m.cpu.exec_tier(), ExecTier::kPredecode);
  EXPECT_EQ(m.run(), Event::kHalted);
  EXPECT_EQ(m.cpu.reg(3), 120u);
}

// A trace sink forces the precise per-step path even on the dbt tier;
// every retired instruction must reach the sink.
TEST(Dbt, TraceHookDisablesFastPath) {
  TestMachine m(
      "  li r4, 20\n"
      "loop:\n"
      "  addik r3, r3, 2\n"
      "  addik r4, r4, -1\n"
      "  bnei r4, loop\n"
      "  halt\n");
  EXPECT_TRUE(m.cpu.fast_path_available());
  const std::vector<obs::TraceEvent>& steps = m.record_events();
  EXPECT_FALSE(m.cpu.fast_path_available());
  EXPECT_EQ(m.run(), Event::kHalted);
  EXPECT_EQ(steps.size(), m.cpu.stats().instructions);
  EXPECT_EQ(m.cpu.reg(3), 40u);
  EXPECT_EQ(m.cpu.dbt_stats().block_dispatches, 0u);
}

}  // namespace
}  // namespace mbcosim::iss
