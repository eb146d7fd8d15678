// Superblock translation tier: transparency, promotion and retirement.
//
// The dbt tier stitches hot basic blocks from the predecode cache into
// threaded code and runs everything else through step(). Its contract:
// architectural state and CpuStats stay bit-identical to the precise
// tier, and a guest store into any word covered by a translated
// superblock retires the stale translation (DESIGN.md §12).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "common/rng.hpp"
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

  // A quantum that ends inside a superblock resumes there as a non-head,
  // so the chunked run translates exactly the blocks a one-shot dbt run
  // does, and no overlapping block starting mid-way.
  TestMachine oneshot(source);
  obs::MetricsRegistry oneshot_metrics;
  prepare(oneshot, ExecTier::kDbt, oneshot_metrics);
  ASSERT_EQ(oneshot.run(), core::StopReason::kHalted);
  EXPECT_EQ(chunked.cpu.dbt_stats().blocks_translated,
            oneshot.cpu.dbt_stats().blocks_translated);
}

// The same chunks with a snapshot/restore round trip in place after each
// one: the block-head flag is not in the image and a restore keeps it,
// so the translation work equals the chunked run's without restores.
TEST(Dbt, RestoreInPlaceBetweenChunksKeepsTheTranslationWork) {
  const char* source =
      "start:\n"
      "  la r2, buffer\n"
      "  li r4, 60\n"
      "loop:\n"
      "  sw r4, r2, r0\n"
      "  lw r6, r2, r0\n"
      "  addk r3, r3, r6\n"
      "  mul r7, r6, r4\n"
      "  xor r8, r8, r7\n"
      "  addik r4, r4, -1\n"
      "  bnei r4, loop\n"
      "  halt\n"
      "buffer: .space 16\n";
  const auto run = [&](bool restore) {
    auto m = std::make_unique<TestMachine>(source);
    constexpr Cycle kBudgets[] = {7, 13, 29};
    core::StopReason reason = core::StopReason::kCycleLimit;
    for (unsigned chunk = 0; reason == core::StopReason::kCycleLimit;
         ++chunk) {
      EXPECT_LT(chunk, 10'000u);
      reason = m->run(m->cpu.cycle() + kBudgets[chunk % 3]);
      if (!restore) continue;
      ckpt::Writer writer;
      m->cpu.save_state(writer);
      m->memory.save_state(writer);
      ckpt::Reader reader(writer.buffer());
      EXPECT_TRUE(m->cpu.load_state(reader));
      EXPECT_TRUE(m->memory.load_state(reader));
      m->cpu.revalidate_text();
    }
    EXPECT_EQ(reason, core::StopReason::kHalted);
    return m;
  };
  const auto plain = run(false);
  const auto restored = run(true);
  EXPECT_EQ(restored->cpu.reg(3), plain->cpu.reg(3));
  EXPECT_EQ(restored->cpu.dbt_stats().blocks_translated,
            plain->cpu.dbt_stats().blocks_translated);
  EXPECT_EQ(restored->cpu.dbt_stats().block_dispatches,
            plain->cpu.dbt_stats().block_dispatches);
  EXPECT_EQ(restored->cpu.dbt_stats().dbt_instructions,
            plain->cpu.dbt_stats().dbt_instructions);
  EXPECT_GT(plain->cpu.dbt_stats().dbt_instructions, 0u);
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

// ---- FSL accesses and IMM prefixes inside superblocks. ---------------

/// The processor's checkpoint image: registers, PC, MSR, a pending IMM
/// prefix or delay slot, and every CpuStats counter.
std::vector<unsigned char> cpu_image(const Processor& cpu) {
  ckpt::Writer writer;
  cpu.save_state(writer);
  return writer.take();
}

/// Every FIFO of the hub, contents and counters, as a checkpoint image.
std::vector<unsigned char> hub_image(const fsl::FslHub& hub) {
  ckpt::Writer writer;
  hub.save_state(writer);
  return writer.take();
}

constexpr std::size_t kMixDepth = 512;

/// A hot loop of randomly chosen FSL accesses in every form (get/put,
/// n*, c*, nc*) on channels 0-3, with readers of the carry and the MSR
/// between them and the odd IMM prefix. fill_mix_fifos() gives channels
/// 0-2 enough words and room for every access, and leaves from_hw 3
/// empty and to_hw 3 full, so the non-blocking forms fail there (carry
/// set); no blocking access goes to channel 3.
std::string fsl_mix_program(u64 seed) {
  Rng rng(seed);
  const auto reg = [&rng] {
    return "r" + std::to_string(3 + rng.next_below(10));
  };
  std::ostringstream os;
  os << "  li r20, 24\nloop:\n";
  for (int i = 0; i < 14; ++i) {
    const u64 kind = rng.next_below(8);
    if (kind < 4) {
      const bool nonblocking = rng.next_below(2) != 0;
      const bool control = rng.next_below(2) != 0;
      const u64 channel = rng.next_below(nonblocking ? 4 : 3);
      os << "  " << (nonblocking ? "n" : "") << (control ? "c" : "")
         << (kind < 2 ? "get " : "put ") << reg() << ", rfsl" << channel
         << "\n";
    } else if (kind == 4) {
      os << "  addc " << reg() << ", " << reg() << ", " << reg() << "\n";
    } else if (kind == 5) {
      os << "  mfs " << reg() << ", rmsr\n";
    } else if (kind == 6) {
      os << "  imm 0x1\n  addik " << reg() << ", " << reg() << ", 0x2345\n";
    } else if (i != 13 && rng.next_below(2) != 0) {
      os << "  imm 0x3\n";  // prefixes whatever comes next
    } else {
      os << "  mts rmsr, r0\n";  // clears the FSL error bit and carry
    }
  }
  os << "  addik r20, r20, -1\n  bnei r20, loop\n  halt\n";
  return os.str();
}

void fill_mix_fifos(fsl::FslHub& hub, u64 seed) {
  Rng rng(seed ^ 0xF1F0);
  for (unsigned channel = 0; channel < 3; ++channel) {
    for (std::size_t i = 0; i < 400; ++i) {
      hub.from_hw(channel).try_write(rng.next_u32(), rng.next_below(2) != 0);
    }
  }
  for (std::size_t i = 0; i < kMixDepth; ++i) {
    hub.to_hw(3).try_write(rng.next_u32(), rng.next_below(2) != 0);
  }
}

TEST(Dbt, EveryFslFormInABlockMatchesPrecise) {
  for (u64 seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string source = fsl_mix_program(seed);
    const auto run = [&](ExecTier tier) {
      auto m = std::make_unique<TestMachine>(
          source, TestMachine::make_default_config(), 64 * 1024, kMixDepth);
      m->cpu.set_exec_tier(tier);
      fill_mix_fifos(m->hub, seed);
      EXPECT_EQ(m->run(), core::StopReason::kHalted);
      return m;
    };
    const auto precise = run(ExecTier::kPrecise);
    const auto dbt = run(ExecTier::kDbt);
    expect_identical_stats(dbt->cpu.stats(), precise->cpu.stats());
    for (unsigned r = 0; r < isa::kNumRegisters; ++r) {
      EXPECT_EQ(dbt->cpu.reg(r), precise->cpu.reg(r)) << "r" << r;
    }
    EXPECT_EQ(dbt->cpu.msr(), precise->cpu.msr());
    EXPECT_EQ(cpu_image(dbt->cpu), cpu_image(precise->cpu));
    EXPECT_EQ(hub_image(dbt->hub), hub_image(precise->hub));
    // The accesses really ran stitched: most instructions retired inside
    // superblocks.
    EXPECT_GT(2 * dbt->cpu.dbt_stats().dbt_instructions,
              dbt->cpu.stats().instructions);
  }
}

// A blocking get in the middle of a translated block, on a FIFO that runs
// dry: the block is left at the get, which stays the PC, and the core
// stalls there until the deadlock rule fires. Both tiers report the same
// stop, the same diagnosis (PC, channel, `blocked N cycles`) and stats.
TEST(Dbt, BlockingGetStallsMidBlockLikePrecise) {
  const char* source =
      "loop:\n"
      "  addik r3, r3, 1\n"
      "blocked:\n"
      "  get r4, rfsl0\n"
      "  addk r5, r5, r4\n"
      "  bri loop\n";
  const auto run = [&](ExecTier tier) {
    auto m = std::make_unique<TestMachine>(source);
    m->cpu.set_exec_tier(tier);
    m->engine.set_deadlock_threshold(500);
    for (Word i = 0; i < 12; ++i) m->hub.from_hw(0).try_write(i, false);
    EXPECT_EQ(m->run(), core::StopReason::kDeadlock);
    return m;
  };
  const auto precise = run(ExecTier::kPrecise);
  const auto dbt = run(ExecTier::kDbt);
  ASSERT_GT(dbt->cpu.dbt_stats().dbt_instructions, 0u);
  EXPECT_EQ(dbt->cpu.pc(), dbt->program.symbols.at("blocked"));
  expect_identical_stats(dbt->cpu.stats(), precise->cpu.stats());
  EXPECT_EQ(dbt->cpu.reg(5), precise->cpu.reg(5));
  ASSERT_TRUE(dbt->engine.deadlock_diagnosis().has_value());
  ASSERT_TRUE(precise->engine.deadlock_diagnosis().has_value());
  EXPECT_EQ(dbt->engine.deadlock_diagnosis()->to_string(),
            precise->engine.deadlock_diagnosis()->to_string());
  EXPECT_EQ(dbt->engine.deadlock_diagnosis()->blocked_cycles, 500u);
}

/// A hook that records the cycle of every FSL sync.
struct SyncProbe {
  std::vector<Cycle> cycles;
  static void record(void* owner, Cycle cycle) {
    static_cast<SyncProbe*>(owner)->cycles.push_back(cycle);
  }
};

// FSL accesses in delay slots run through step() inside the batch, after
// the same sync as a stitched access; both tiers agree, and every access
// of the dbt run, stitched or stepped, synced exactly once.
TEST(Dbt, FslOpInDelaySlotMatchesPrecise) {
  const char* source =
      "  li r5, 20\n"
      "loop:\n"
      "  get r3, rfsl0\n"
      "  addik r5, r5, -1\n"
      "  bneid r5, loop\n"
      "  put r3, rfsl1\n"  // delay slot
      "  brid done\n"
      "  nget r6, rfsl2\n"  // delay slot, on an empty FIFO
      "done:\n"
      "  halt\n";
  const auto run = [&](ExecTier tier, SyncProbe* probe) {
    auto m = std::make_unique<TestMachine>(
        source, TestMachine::make_default_config(), 64 * 1024, 32);
    m->cpu.set_exec_tier(tier);
    for (Word i = 0; i < 20; ++i) m->hub.from_hw(0).try_write(i * 3, i & 1);
    if (probe == nullptr) {
      EXPECT_EQ(m->run(), core::StopReason::kHalted);
    } else {
      m->cpu.set_fsl_sync({probe, &SyncProbe::record});
      EXPECT_EQ(m->cpu.run_batch(1'000'000).stop, BatchStop::kHalted);
    }
    return m;
  };
  const auto precise = run(ExecTier::kPrecise, nullptr);
  SyncProbe probe;
  const auto dbt = run(ExecTier::kDbt, &probe);
  expect_identical_stats(dbt->cpu.stats(), precise->cpu.stats());
  EXPECT_EQ(cpu_image(dbt->cpu), cpu_image(precise->cpu));
  EXPECT_EQ(hub_image(dbt->hub), hub_image(precise->hub));
  EXPECT_EQ(dbt->hub.to_hw(1).occupancy(), 20u);
  EXPECT_GT(dbt->cpu.dbt_stats().dbt_instructions, 0u);
  // 20 gets, 20 puts and the nget: one sync each, in cycle order.
  EXPECT_EQ(probe.cycles.size(), 41u);
  EXPECT_TRUE(std::is_sorted(probe.cycles.begin(), probe.cycles.end()));
}

/// A hot loop whose IMM-prefixed instructions cover every operand-b
/// family: ALU, multiply, shift, logic, load and store with a far
/// offset, and a conditional branch whose target needs the prefix.
const char* imm_mix_program() {
  return "start:\n"
         "  li r4, 40\n"
         "  la r2, buffer\n"
         "  imm 0xFFFF\n"
         "  addik r2, r2, 0\n"  // buffer - 64 KiB, for far offsets
         "loop:\n"
         "  li r1, 0x12345678\n"
         "  imm 0x2\n"
         "  addik r3, r3, 0x3456\n"
         "  imm 0x1\n"
         "  muli r6, r4, 1\n"
         "  imm 0x7FFF\n"
         "  xori r7, r6, 0\n"
         "  bslli r8, r7, 3\n"
         "  imm 0x1\n"
         "  swi r6, r2, 0\n"
         "  imm 0x1\n"
         "  lwi r9, r2, 0\n"
         "  addk r3, r3, r9\n"
         "  addik r4, r4, -1\n"
         "  imm 0xFFFF\n"  // a backward displacement's own sign bits
         "  bnei r4, loop\n"
         "  halt\n"
         "buffer: .space 16\n";
}

// Run `source` at the precise tier and at the dbt tier, both in chunks
// of `budget` cycles: at every chunk boundary the two processors' images
// (a pending IMM prefix included) must agree.
void expect_chunked_tiers_agree(const char* source, Cycle budget) {
  TestMachine precise(source);
  precise.cpu.set_exec_tier(ExecTier::kPrecise);
  TestMachine dbt(source);
  core::StopReason reason = core::StopReason::kCycleLimit;
  for (unsigned chunk = 0; reason == core::StopReason::kCycleLimit; ++chunk) {
    ASSERT_LT(chunk, 100'000u);
    const Cycle target = precise.cpu.cycle() + budget;
    reason = precise.run(target);
    ASSERT_EQ(dbt.run(target), reason);
    ASSERT_EQ(cpu_image(dbt.cpu), cpu_image(precise.cpu))
        << "budget " << budget << ", chunk " << chunk;
  }
  ASSERT_EQ(reason, core::StopReason::kHalted);
  EXPECT_GT(dbt.cpu.dbt_stats().dbt_instructions, 0u);
}

// Budgets of 1..12 cycles end quanta between an IMM prefix and the
// instruction it prefixes, inside translated blocks; the prefix must be
// left pending exactly as step() leaves it.
TEST(Dbt, ImmPrefixedInstructionsMatchPreciseAtEveryBudget) {
  for (Cycle budget = 1; budget <= 12; ++budget) {
    expect_chunked_tiers_agree(imm_mix_program(), budget);
  }
  DbtStats counters;
  Word r3[2] = {0, 0};
  const CpuStats precise =
      run_with_tier(imm_mix_program(), ExecTier::kPrecise, &r3[0]);
  const CpuStats dbt =
      run_with_tier(imm_mix_program(), ExecTier::kDbt, &r3[1], &counters);
  expect_identical_stats(dbt, precise);
  EXPECT_EQ(r3[1], r3[0]);
  // The prefixes run stitched: only the first passes of the loop step.
  EXPECT_GT(10 * counters.dbt_instructions, 7 * dbt.instructions);
}

// Branches whose displacement needs its IMM prefix: a forward bnei of
// +64 KiB whose low half alone would read -16, and a bri back of -64 KiB.
// Translation resolves both targets with the prefix folded in.
TEST(Dbt, ImmPrefixedBranchesReachFarTargets) {
  const char* source =
      "start:\n"
      "  addik r4, r0, 20\n"
      "loop:\n"             // 0x4
      "  addik r3, r3, 1\n"
      "  addik r4, r4, -1\n"
      "  imm 0x0\n"
      "  bnei r4, -16\n"     // at 0x10: 0x10 + 0xFFF0 = far
      "  halt\n"
      "  .space 65512\n"     // 0x18 up to 0x10000
      "far:\n"
      "  addik r3, r3, 2\n"
      "  imm 0xFFFE\n"
      "  bri -4\n";          // at 0x10008: + 0xFFFEFFFC = loop
  Word r3[2] = {0, 0};
  DbtStats counters;
  const CpuStats precise = run_big(source, ExecTier::kPrecise, &r3[0]);
  const CpuStats dbt = run_big(source, ExecTier::kDbt, &r3[1], &counters);
  EXPECT_EQ(r3[0], 20u + 2u * 19u);
  EXPECT_EQ(r3[1], r3[0]);
  expect_identical_stats(dbt, precise);
  EXPECT_GT(counters.dbt_instructions, 0u);
}

// A prefixed load that traps inside a translated block leaves the prefix
// pending, as the precise tier does; the images agree.
TEST(Dbt, TrapAfterImmPrefixInABlockMatchesPrecise) {
  const char* source =
      "  la r7, buffer\n"
      "  imm 0xFFFE\n"
      "  addik r7, r7, 0\n"  // buffer - 128 KiB
      "loop:\n"
      "  imm 0x2\n"
      "  lwi r5, r7, 0\n"  // buffer, then up and off the 64 KiB memory
      "  addik r7, r7, 0x1000\n"
      "  bri loop\n"
      "buffer: .space 4\n";
  const auto run = [&](ExecTier tier) {
    auto m = std::make_unique<TestMachine>(source);
    m->cpu.set_exec_tier(tier);
    EXPECT_EQ(m->run(), core::StopReason::kIllegal);
    return m;
  };
  const auto precise = run(ExecTier::kPrecise);
  const auto dbt = run(ExecTier::kDbt);
  ASSERT_GT(dbt->cpu.dbt_stats().blocks_translated, 0u);
  EXPECT_EQ(cpu_image(dbt->cpu), cpu_image(precise->cpu));
  expect_identical_stats(dbt->cpu.stats(), precise->cpu.stats());
}

// The FSL mix at every budget of 1..12 cycles: quanta end just before,
// on and just after the stitched accesses.
TEST(Dbt, FslMixMatchesPreciseAtEveryBudget) {
  const std::string source = fsl_mix_program(7);
  for (Cycle budget = 1; budget <= 12; ++budget) {
    TestMachine precise(source, TestMachine::make_default_config(),
                        64 * 1024, kMixDepth);
    precise.cpu.set_exec_tier(ExecTier::kPrecise);
    fill_mix_fifos(precise.hub, 7);
    TestMachine dbt(source, TestMachine::make_default_config(), 64 * 1024,
                    kMixDepth);
    fill_mix_fifos(dbt.hub, 7);
    core::StopReason reason = core::StopReason::kCycleLimit;
    while (reason == core::StopReason::kCycleLimit) {
      const Cycle target = precise.cpu.cycle() + budget;
      reason = precise.run(target);
      ASSERT_EQ(dbt.run(target), reason);
      ASSERT_EQ(cpu_image(dbt.cpu), cpu_image(precise.cpu))
          << "budget " << budget;
    }
    ASSERT_EQ(reason, core::StopReason::kHalted);
    EXPECT_EQ(hub_image(dbt.hub), hub_image(precise.hub));
  }
}

}  // namespace
}  // namespace mbcosim::iss

