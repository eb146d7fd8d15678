// Superblock translation tier: transparency, promotion and retirement.
//
// The dbt tier stitches hot basic blocks from the predecode cache into
// threaded code and runs everything else through step(). Its contract:
// architectural state and CpuStats stay bit-identical to the precise
// tier, and a guest store into any word covered by a translated
// superblock retires the stale translation (DESIGN.md §12).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "iss/test_helpers.hpp"
#include "obs/metrics.hpp"

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
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  if (r3_out != nullptr) *r3_out = m.cpu.reg(3);
  if (dbt_out != nullptr) *dbt_out = m.cpu.dbt_stats();
  return m.cpu.stats();
}

void expect_identical_stats(const CpuStats& a, const CpuStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.fsl_stall_cycles, b.fsl_stall_cycles);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.fsl_reads, b.fsl_reads);
  EXPECT_EQ(a.fsl_writes, b.fsl_writes);
  EXPECT_EQ(a.branches, b.branches);
  EXPECT_EQ(a.branches_taken, b.branches_taken);
  EXPECT_EQ(a.multiplies, b.multiplies);
  EXPECT_EQ(a.opb_accesses, b.opb_accesses);
  EXPECT_EQ(a.opb_wait_cycles, b.opb_wait_cycles);
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
  Word r3[2] = {0, 0};
  const CpuStats precise =
      run_with_tier(hot_mixed_program(), ExecTier::kPrecise, &r3[0]);
  DbtStats dbt_counters;
  const CpuStats dbt = run_with_tier(hot_mixed_program(), ExecTier::kDbt,
                                     &r3[1], &dbt_counters);
  expect_identical_stats(dbt, precise);
  EXPECT_EQ(r3[0], 350u);
  EXPECT_EQ(r3[1], r3[0]);
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

// At the precise tier the machinery is off and its counters stay zero.
TEST(Dbt, CountersZeroBelowDbtTier) {
  DbtStats counters;
  run_with_tier(hot_mixed_program(), ExecTier::kPrecise, nullptr,
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
// executing correctly at the precise tier (the builder/CLI knob).
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
  ASSERT_EQ(m.run(60), core::StopReason::kCycleLimit);
  const u64 dispatches = m.cpu.dbt_stats().block_dispatches;
  ASSERT_GT(dispatches, 0u);
  m.cpu.set_exec_tier(ExecTier::kPrecise);
  EXPECT_EQ(m.cpu.exec_tier(), ExecTier::kPrecise);
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_EQ(m.cpu.dbt_stats().block_dispatches, dispatches);
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
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  EXPECT_EQ(steps.size(), m.cpu.stats().instructions);
  EXPECT_EQ(m.cpu.reg(3), 40u);
  EXPECT_EQ(m.cpu.dbt_stats().block_dispatches, 0u);
}

// A hot loop that also holds two instructions no superblock stitches:
// the IMM prefix of a 32-bit constant and a custom-slot instruction.
// Run in odd-sized budgets at the dbt tier, quanta end in the middle of
// translated blocks and on untranslated words, and both resume through
// run_batch and step(); the result must equal one precise run.
TEST(Dbt, ChunkedRunsMatchPreciseOneShot) {
  const char* source =
      "start:\n"
      "  la r2, buffer\n"
      "  li r4, 60\n"
      "loop:\n"
      "  li r1, 0x12345678\n"  // imm + addik: the IMM-prefix path
      "  cust0 r5, r4, r1\n"   // custom slot: always through step()
      "  sw r5, r2, r0\n"
      "  lw r6, r2, r0\n"
      "  addk r3, r3, r6\n"
      "  mul r7, r6, r4\n"
      "  xor r8, r8, r7\n"
      "  addik r4, r4, -1\n"
      "  bnei r4, loop\n"
      "  halt\n"
      "buffer: .space 16\n";
  const auto prepare = [](TestMachine& m, ExecTier tier,
                          obs::MetricsRegistry& registry) {
    CustomInstruction unit;
    unit.name = "mix";
    unit.compute = [](Word a, Word b) { return (a * 3u) ^ b; };
    unit.latency = 3;
    m.cpu.register_custom_instruction(0, unit);
    m.cpu.set_exec_tier(tier);
    m.cpu.set_metrics(&registry.cpu);
    m.engine.set_metrics(&registry.engine);
  };

  TestMachine reference(source);
  obs::MetricsRegistry reference_metrics;
  prepare(reference, ExecTier::kPrecise, reference_metrics);
  ASSERT_EQ(reference.run(), core::StopReason::kHalted);

  TestMachine chunked(source);
  obs::MetricsRegistry chunked_metrics;
  prepare(chunked, ExecTier::kDbt, chunked_metrics);
  constexpr Cycle kBudgets[] = {7, 13, 29};
  core::StopReason reason = core::StopReason::kCycleLimit;
  for (unsigned chunk = 0; reason == core::StopReason::kCycleLimit;
       ++chunk) {
    ASSERT_LT(chunk, 10'000u) << "chunked run did not halt";
    reason = chunked.run(chunked.cpu.cycle() + kBudgets[chunk % 3]);
  }
  ASSERT_EQ(reason, core::StopReason::kHalted);

  expect_identical_stats(chunked.cpu.stats(), reference.cpu.stats());
  for (unsigned r = 0; r < isa::kNumRegisters; ++r) {
    EXPECT_EQ(chunked.cpu.reg(r), reference.cpu.reg(r)) << "r" << r;
  }
  EXPECT_EQ(chunked.cpu.msr(), reference.cpu.msr());
  EXPECT_EQ(chunked_metrics.snapshot().to_string(),
            reference_metrics.snapshot().to_string());
  // The loop is hot: the chunked run really dispatched superblocks.
  EXPECT_GT(chunked.cpu.dbt_stats().dbt_instructions, 0u);
}

// The predecode cache and the dbt word tables grow with the highest word
// the program fetches, not with the memory. The programs below fetch far
// from address 0, in a 256 KiB memory; each must behave exactly as it
// does at the precise tier.

constexpr u32 kBigMemory = 256 * 1024;

CpuStats run_big(const std::string& source, ExecTier tier,
                 Word* r3_out = nullptr, DbtStats* dbt_out = nullptr) {
  TestMachine m(source, TestMachine::make_default_config(), kBigMemory);
  m.cpu.set_exec_tier(tier);
  EXPECT_EQ(m.run(), core::StopReason::kHalted);
  if (r3_out != nullptr) *r3_out = m.cpu.reg(3);
  if (dbt_out != nullptr) *dbt_out = m.cpu.dbt_stats();
  return m.cpu.stats();
}

// A hot loop in the last eight words of memory.
TEST(Dbt, HotLoopAtTheTopOfA256KiBMemory) {
  const std::string source =
      ".org 0x3FFE0\n"
      "start:\n"
      "  addik r5, r0, 1\n"
      "  addik r5, r5, 1\n"
      "  li r4, 50\n"
      "loop:\n"
      "  addik r3, r3, 7\n"
      "  addik r4, r4, -1\n"
      "  bnei r4, loop\n"
      "  halt\n";
  const assembler::Program program = assembler::assemble_or_throw(source);
  ASSERT_EQ(program.origin + program.size_bytes(), kBigMemory);
  Word precise_r3 = 0;
  Word dbt_r3 = 0;
  DbtStats counters;
  const CpuStats precise = run_big(source, ExecTier::kPrecise, &precise_r3);
  const CpuStats dbt = run_big(source, ExecTier::kDbt, &dbt_r3, &counters);
  EXPECT_EQ(precise_r3, 350u);
  EXPECT_EQ(dbt_r3, precise_r3);
  expect_identical_stats(dbt, precise);
  EXPECT_GE(counters.blocks_translated, 1u);
  EXPECT_GT(counters.dbt_instructions, 0u);
}

// Code at address 0 jumps 40 KB up, well past the words a first fetch
// at 0 covers, into a hot loop that stores into its own text once it
// is translated: 20 passes add 1, the store rewrites the add to add
// 100, and 10 more passes add 100, so r3 == 1020.
std::string far_smc_program() {
  isa::Instruction patched;
  patched.op = isa::Op::kAddk;
  patched.rd = 3;
  patched.ra = 3;
  patched.imm = 100;
  patched.imm_form = true;
  return "start:\n"
         "  li r1, " +
         std::to_string(isa::encode(patched)) +
         "\n"
         "  la r2, patch\n"
         "  la r6, far\n"
         "  bra r6\n"
         "  .space 40000\n"
         "far:\n"
         "  li r4, 30\n"
         "loop:\n"
         "patch:\n"
         "  addik r3, r3, 1\n"
         "  addik r4, r4, -1\n"
         "  xori r7, r4, 10\n"
         "  bnei r7, skip\n"
         "  sw r1, r2, r0\n"  // once, when r4 reaches 10
         "skip:\n"
         "  bnei r4, loop\n"
         "  halt\n";
}

TEST(Dbt, SmcStoreIntoFarTextRetiresItsBlock) {
  Word precise_r3 = 0;
  Word dbt_r3 = 0;
  DbtStats counters;
  const CpuStats precise =
      run_big(far_smc_program(), ExecTier::kPrecise, &precise_r3);
  const CpuStats dbt =
      run_big(far_smc_program(), ExecTier::kDbt, &dbt_r3, &counters);
  EXPECT_EQ(precise_r3, 1020u);
  EXPECT_EQ(dbt_r3, precise_r3);
  expect_identical_stats(dbt, precise);
  EXPECT_GE(counters.blocks_translated, 1u);
  EXPECT_GE(counters.smc_retirements, 1u);
}

// A checkpoint of the far program taken before its store, restored (a)
// in place after the run finished, where the cache holds the patched
// word far up; (b) into a fresh machine that has fetched nothing; and
// (c) into a machine that ran other text at the same far addresses.
// revalidate_text() must keep or drop the cached text so that each
// restored run ends exactly as the uninterrupted one.
TEST(Dbt, RestoreRevalidatesTextAcrossGrowth) {
  const auto machine = [](const std::string& source) {
    auto m = std::make_unique<TestMachine>(
        source, TestMachine::make_default_config(), kBigMemory);
    m->cpu.set_exec_tier(ExecTier::kDbt);
    return m;
  };
  const auto restore = [](TestMachine& m,
                          const std::vector<unsigned char>& image) {
    ckpt::Reader reader(image);
    ASSERT_TRUE(m.cpu.load_state(reader));
    ASSERT_TRUE(m.memory.load_state(reader));
    m.cpu.revalidate_text();
  };
  const auto expect_like = [](TestMachine& m, const TestMachine& reference,
                              const char* what) {
    ASSERT_EQ(m.run(), core::StopReason::kHalted) << what;
    EXPECT_EQ(m.cpu.reg(3), reference.cpu.reg(3)) << what;
    EXPECT_EQ(m.cpu.stats().cycles, reference.cpu.stats().cycles) << what;
    EXPECT_EQ(m.cpu.stats().instructions, reference.cpu.stats().instructions)
        << what;
    EXPECT_EQ(m.cpu.stats().stores, reference.cpu.stats().stores) << what;
  };

  const std::string source = far_smc_program();
  const auto reference = machine(source);
  ASSERT_EQ(reference->run(), core::StopReason::kHalted);
  ASSERT_EQ(reference->cpu.reg(3), 1020u);

  // Half way is after the loop is translated and before the store.
  const auto original = machine(source);
  ASSERT_EQ(original->run(reference->cpu.cycle() / 2),
            core::StopReason::kCycleLimit);
  ASSERT_GT(original->cpu.dbt_stats().blocks_translated, 0u);
  ASSERT_EQ(original->cpu.stats().stores, 0u);
  ckpt::Writer writer;
  original->cpu.save_state(writer);
  original->memory.save_state(writer);
  const std::vector<unsigned char> image = writer.take();

  ASSERT_EQ(original->run(), core::StopReason::kHalted);
  restore(*original, image);
  expect_like(*original, *reference, "in place");

  const auto fresh = machine(source);
  restore(*fresh, image);
  expect_like(*fresh, *reference, "fresh");

  // The same layout with `addik r3, r3, 5` at `patch`: every far word
  // this machine caches differs from the restored one's.
  std::string other_source = source;
  const std::string add1 = "addik r3, r3, 1";
  other_source.replace(other_source.find(add1), add1.size(),
                       "addik r3, r3, 5");
  const auto other = machine(other_source);
  ASSERT_EQ(other->run(), core::StopReason::kHalted);
  restore(*other, image);
  expect_like(*other, *reference, "over other text");
}

}  // namespace
}  // namespace mbcosim::iss

