// Checkpoint subsystem tests, from codec to full system:
//
//   - the byte codec and sealed image container, including one test per
//     stable [ckpt-*] error code on a damaged image,
//   - rtl::Simulator net-state round trips (save mid-run, resume
//     bit-exactly in a freshly elaborated kernel),
//   - SimSystem save -> restore -> run golden-state comparisons against
//     an uninterrupted run: single-core, the 3-core CORDIC farm from
//     examples/machines at 1/2/8 workers, and a mid-quantum debugger
//     stop.
//
// Runs as its own executable under the `ckpt` ctest label so the asan
// and tsan presets can sweep it next to the machine tests.
#include <array>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/machine_peripherals.hpp"
#include "ckpt/ckpt.hpp"
#include "core/manycore.hpp"
#include "isa/isa.hpp"
#include "iss/processor.hpp"
#include "machine/machine_desc.hpp"
#include "obs/jsonl_sink.hpp"
#include "rtl/kernel.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim {
namespace {

[[nodiscard]] std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// The error message must carry the stable bracketed code as a prefix —
/// that is the dispatchable part of the contract.
void expect_code(const std::string& message, std::size_t code_index) {
  EXPECT_EQ(message.rfind(ckpt::kCkptErrorCodes[code_index], 0), 0u)
      << "want prefix " << ckpt::kCkptErrorCodes[code_index] << ", got: "
      << message;
}

// ------------------------------------------------------------ byte codec

TEST(CkptCodec, RoundTripsEveryFieldType) {
  ckpt::Writer writer;
  writer.write_u8(0xab);
  writer.write_u16(0xbeef);
  writer.write_u32(0xdeadbeefu);
  writer.write_u64(0x0123456789abcdefull);
  writer.write_i64(-42);
  writer.write_bool(true);
  writer.write_bool(false);
  writer.write_str("quantum");
  const unsigned char raw[3] = {1, 2, 3};
  writer.write_bytes(raw, sizeof raw);

  ckpt::Reader reader(writer.buffer());
  EXPECT_EQ(reader.read_u8(), 0xab);
  EXPECT_EQ(reader.read_u16(), 0xbeef);
  EXPECT_EQ(reader.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.read_i64(), -42);
  EXPECT_TRUE(reader.read_bool());
  EXPECT_FALSE(reader.read_bool());
  EXPECT_EQ(reader.read_str(), "quantum");
  unsigned char back[3] = {};
  EXPECT_TRUE(reader.read_bytes(back, sizeof back));
  EXPECT_EQ(back[2], 3);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(CkptCodec, EncodingIsLittleEndianBytes) {
  ckpt::Writer writer;
  writer.write_u32(0x04030201u);
  ASSERT_EQ(writer.buffer().size(), 4u);
  EXPECT_EQ(writer.buffer()[0], 0x01);
  EXPECT_EQ(writer.buffer()[3], 0x04);
}

TEST(CkptCodec, ReaderLatchesUnderrunInsteadOfThrowing) {
  const unsigned char two[2] = {0x11, 0x22};
  ckpt::Reader reader(two, sizeof two);
  EXPECT_EQ(reader.read_u64(), 0x2211u);  // short read pads with zeros
  EXPECT_FALSE(reader.ok());
  // Latched: later reads stay zero and ok() stays false.
  EXPECT_EQ(reader.read_u32(), 0u);
  EXPECT_FALSE(reader.ok());
}

// --------------------------------------------------------- sealed images

[[nodiscard]] std::vector<unsigned char> sample_image() {
  ckpt::Writer writer;
  writer.write_str("payload under test");
  writer.write_u64(7);
  return ckpt::seal(writer.take());
}

TEST(CkptImage, SealUnsealRoundTrips) {
  const std::vector<unsigned char> image = sample_image();
  ASSERT_GE(image.size(), ckpt::kHeaderBytes);
  const auto payload = ckpt::unseal(image);
  ASSERT_TRUE(payload.ok()) << payload.error();
  ckpt::Reader reader(payload.value());
  EXPECT_EQ(reader.read_str(), "payload under test");
  EXPECT_EQ(reader.read_u64(), 7u);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(CkptImage, FileRoundTripAndIoErrors) {
  const std::vector<unsigned char> image = sample_image();
  const std::string path = tmp_path("ckpt_image_roundtrip.ckpt");
  ASSERT_TRUE(ckpt::write_file(path, image).ok);
  const auto back = ckpt::read_file(path);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value(), image);

  expect_code(ckpt::read_file(tmp_path("no/such/dir/x.ckpt")).error(), 0);
  expect_code(ckpt::write_file(tmp_path("no/such/dir/x.ckpt"), image).message,
              0);
}

// On-disk damage through read_sealed (read_file + unseal): every shape
// of a torn or tampered checkpoint file must come back as a structured
// [ckpt-*] error — never UB, never an exception. This is the exact path
// journal recovery takes when deciding whether to skip a record.
TEST(CkptImage, ReadSealedRejectsDamagedFilesStructurally) {
  const std::vector<unsigned char> image = sample_image();
  const std::string path = tmp_path("ckpt_damaged.ckpt");

  // Intact file: round-trips through the one-step reader.
  ASSERT_TRUE(ckpt::write_file(path, image).ok);
  const auto payload = ckpt::read_sealed(path);
  ASSERT_TRUE(payload.ok()) << payload.error();
  ckpt::Reader reader(payload.value());
  EXPECT_EQ(reader.read_str(), "payload under test");

  // Zero-length file (crash before any byte landed).
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    expect_code(ckpt::read_sealed(path).error(), 3);
  }

  // Truncated mid-payload (crash mid-write without the tmp+rename
  // discipline): shorter than the header promises.
  {
    std::vector<unsigned char> torn(image.begin(), image.end() - 5);
    ASSERT_TRUE(ckpt::write_file(path, torn).ok);
    expect_code(ckpt::read_sealed(path).error(), 3);
  }

  // Truncated inside the header itself.
  {
    std::vector<unsigned char> stub(image.begin(),
                                    image.begin() + ckpt::kHeaderBytes / 2);
    ASSERT_TRUE(ckpt::write_file(path, stub).ok);
    expect_code(ckpt::read_sealed(path).error(), 3);
  }

  // A single flipped payload bit: the FNV-1a seal catches it.
  {
    std::vector<unsigned char> flipped = image;
    flipped[ckpt::kHeaderBytes] ^= 0x20;
    ASSERT_TRUE(ckpt::write_file(path, flipped).ok);
    expect_code(ckpt::read_sealed(path).error(), 4);
  }

  // Missing file.
  expect_code(ckpt::read_sealed(tmp_path("never_written.ckpt")).error(), 0);
}

TEST(CkptImage, RejectsForeignBytesAsNotACheckpoint) {
  std::vector<unsigned char> image = sample_image();
  image[0] ^= 0xff;  // not "MBCK" any more
  expect_code(ckpt::unseal(image).error(), 1);

  // Shorter than the header itself: reported as truncation, since the
  // magic cannot even be read.
  const std::vector<unsigned char> tiny = {'M', 'B'};
  expect_code(ckpt::unseal(tiny).error(), 3);
}

TEST(CkptImage, RejectsVersionSkew) {
  std::vector<unsigned char> image = sample_image();
  image[4] = static_cast<unsigned char>(ckpt::kFormatVersion + 1);
  expect_code(ckpt::unseal(image).error(), 2);
}

TEST(CkptImage, RejectsTruncation) {
  std::vector<unsigned char> image = sample_image();
  image.resize(image.size() - 1);
  expect_code(ckpt::unseal(image).error(), 3);
}

TEST(CkptImage, RejectsPayloadCorruption) {
  std::vector<unsigned char> image = sample_image();
  image[ckpt::kHeaderBytes + 3] ^= 0x01;  // checksum no longer matches
  expect_code(ckpt::unseal(image).error(), 4);
}

// ------------------------------------------------------ rtl::Simulator

/// An 8-bit counter clocked by `clk`: the smallest circuit with real
/// sequential state in kernel nets.
struct CounterCircuit {
  rtl::Simulator sim;
  rtl::Net* clk = nullptr;
  rtl::Net* count = nullptr;

  CounterCircuit() {
    clk = &sim.net("clk", 1, 0);
    count = &sim.net("count", 8, 0);
    sim.process("counter", {clk}, [this] {
      if (clk->value() == 1) sim.assign(*count, (count->value() + 1) & 0xff);
    });
    sim.start();
  }
};

TEST(CkptRtl, SimulatorResumesBitExactly) {
  CounterCircuit original;
  for (int i = 0; i < 37; ++i) original.sim.tick(*original.clk);
  ASSERT_EQ(original.count->value(), 37u);

  ckpt::Writer writer;
  original.sim.save_state(writer);
  const std::vector<unsigned char> state = writer.take();

  CounterCircuit resumed;
  ckpt::Reader reader(state);
  ASSERT_TRUE(resumed.sim.load_state(reader));
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(resumed.count->value(), 37u);

  // Both simulators must now agree tick for tick — values and kernel
  // statistics, since the stats are part of the saved state.
  for (int i = 0; i < 100; ++i) {
    original.sim.tick(*original.clk);
    resumed.sim.tick(*resumed.clk);
    ASSERT_EQ(resumed.count->value(), original.count->value()) << "tick " << i;
  }
  EXPECT_EQ(resumed.sim.stats().events, original.sim.stats().events);
  EXPECT_EQ(resumed.sim.stats().clock_cycles, original.sim.stats().clock_cycles);
}

TEST(CkptRtl, LoadRejectsADifferentCircuit) {
  CounterCircuit original;
  original.sim.tick(*original.clk);
  ckpt::Writer writer;
  original.sim.save_state(writer);
  const std::vector<unsigned char> state = writer.take();

  rtl::Simulator other;
  other.net("clk", 1, 0);
  other.net("wide_count", 16, 0);  // same net count, wrong width
  other.start();
  ckpt::Reader reader(state);
  EXPECT_FALSE(other.load_state(reader));
}

// ------------------------------------------------------------ SimSystem

/// ~1.5k-cycle single-core workload with an architectural result.
constexpr const char* kSumProgram = R"(
start:
  li r3, 200
  addk r4, r0, r0
loop:
  addk r4, r4, r3
  addik r3, r3, -1
  bnei r3, loop
  la r5, result
  swi r4, r5, 0
  halt
result: .space 4
)";

struct FinalState {
  core::CoSimStats stats;
  std::vector<Word> regs;
  Word result = 0;
};

[[nodiscard]] FinalState finish(sim::SimSystem& system) {
  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  FinalState state;
  state.stats = system.stats();
  for (unsigned r = 0; r < isa::kNumRegisters; ++r) {
    state.regs.push_back(system.cpu().reg(r));
  }
  state.result = system.word("result");
  return state;
}

void expect_same(const FinalState& got, const FinalState& want) {
  EXPECT_EQ(got.stats.cycles, want.stats.cycles);
  EXPECT_EQ(got.stats.instructions, want.stats.instructions);
  EXPECT_EQ(got.stats.fsl_stall_cycles, want.stats.fsl_stall_cycles);
  EXPECT_EQ(got.regs, want.regs);
  EXPECT_EQ(got.result, want.result);
}

/// A builder for the one-core machine running `source`.
sim::SimSystem::Builder one_core(std::string source) {
  sim::SimSystem::Builder builder;
  builder.machine(machine::MachineDesc::single_core(std::move(source)));
  return builder;
}

TEST(CkptSystem, SingleCoreRestoreRunMatchesFreeRun) {
  auto free_built = one_core(kSumProgram).build();
  ASSERT_TRUE(free_built.ok()) << free_built.error();
  sim::SimSystem free_run = std::move(free_built).value();
  const FinalState want = finish(free_run);
  ASSERT_EQ(want.result, 20100u);  // sum 1..200

  auto saver_built = one_core(kSumProgram).build();
  ASSERT_TRUE(saver_built.ok()) << saver_built.error();
  sim::SimSystem saver = std::move(saver_built).value();
  ASSERT_EQ(saver.run(500), core::StopReason::kCycleLimit);
  const std::vector<unsigned char> image = saver.snapshot();

  auto resumed_built = one_core(kSumProgram).build();
  ASSERT_TRUE(resumed_built.ok()) << resumed_built.error();
  sim::SimSystem resumed = std::move(resumed_built).value();
  ASSERT_TRUE(resumed.restore_image(image).ok);
  expect_same(finish(resumed), want);

  // And the saver itself, running on past the snapshot, agrees too: the
  // snapshot is a pure observation.
  expect_same(finish(saver), want);
}

// Snapshot taken while a translated superblock is live: the hot loop of
// kSumProgram is far past the dbt promotion threshold at cycle 500. The
// restore must drop every translation (the cached text belongs to the
// pre-restore image), restart the dbt counters, regenerate the blocks
// lazily and still replay to the bit-exact same end state.
TEST(CkptSystem, RestoreAcrossHotBlockRegeneratesTranslations) {
  auto free_built = one_core(kSumProgram).build();
  ASSERT_TRUE(free_built.ok()) << free_built.error();
  sim::SimSystem free_run = std::move(free_built).value();
  const FinalState want = finish(free_run);

  auto saver_built = one_core(kSumProgram).build();
  ASSERT_TRUE(saver_built.ok()) << saver_built.error();
  sim::SimSystem saver = std::move(saver_built).value();
  ASSERT_EQ(saver.cpu().exec_tier(), iss::ExecTier::kDbt);
  ASSERT_EQ(saver.run(500), core::StopReason::kCycleLimit);
  // The loop is hot and running inside a translated superblock.
  const iss::DbtStats at_save = saver.cpu().dbt_stats();
  ASSERT_GE(at_save.blocks_translated, 1u);
  ASSERT_GT(at_save.dbt_instructions, 0u);
  const std::vector<unsigned char> image = saver.snapshot();

  auto resumed_built = one_core(kSumProgram).build();
  ASSERT_TRUE(resumed_built.ok()) << resumed_built.error();
  sim::SimSystem resumed = std::move(resumed_built).value();
  ASSERT_TRUE(resumed.restore_image(image).ok);
  // Restore retired all translation state: the counters restart.
  EXPECT_EQ(resumed.cpu().dbt_stats().blocks_translated, 0u);
  EXPECT_EQ(resumed.cpu().dbt_stats().dbt_instructions, 0u);

  expect_same(finish(resumed), want);
  // The remaining ~1k cycles re-promoted the loop from scratch.
  EXPECT_GE(resumed.cpu().dbt_stats().blocks_translated, 1u);
  EXPECT_GT(resumed.cpu().dbt_stats().dbt_instructions, 0u);
}

TEST(CkptSystem, SaveCheckpointRestoreFileRoundTrip) {
  const std::string path = tmp_path("ckpt_single_core.ckpt");
  auto a_built = one_core(kSumProgram).build();
  ASSERT_TRUE(a_built.ok()) << a_built.error();
  sim::SimSystem a = std::move(a_built).value();
  ASSERT_EQ(a.run(300), core::StopReason::kCycleLimit);
  ASSERT_TRUE(a.save_checkpoint(path).ok);
  const FinalState want = finish(a);

  auto b_built = one_core(kSumProgram).build();
  ASSERT_TRUE(b_built.ok()) << b_built.error();
  sim::SimSystem b = std::move(b_built).value();
  ASSERT_TRUE(b.restore(path).ok);
  expect_same(finish(b), want);
}

TEST(CkptSystem, RestoreRejectsADifferentMachineShape) {
  auto a_built = one_core(kSumProgram).build();
  ASSERT_TRUE(a_built.ok()) << a_built.error();
  sim::SimSystem a = std::move(a_built).value();
  const std::vector<unsigned char> image = a.snapshot();

  auto b_built = one_core("halt\n").build();
  ASSERT_TRUE(b_built.ok()) << b_built.error();
  sim::SimSystem b = std::move(b_built).value();
  const Status status = b.restore_image(image);
  ASSERT_FALSE(status.ok);
  expect_code(status.message, 5);

  // Not-a-checkpoint bytes through the same entry point.
  std::vector<unsigned char> garbage(64, 0x5a);
  expect_code(b.restore_image(garbage).message, 1);
}

// ----------------------------------------------- 3-core CORDIC farm

[[nodiscard]] machine::MachineDesc farm_desc() {
  apps::register_machine_peripherals();
  auto parsed = machine::MachineDesc::from_file(
      std::string(MBCOSIM_EXAMPLES_DIR) + "/machines/cordic_farm.json");
  EXPECT_TRUE(parsed.ok()) << parsed.error();
  return parsed.value();
}

struct FarmEnd {
  core::CoSimStats stats;
  u64 link_words = 0;
  std::size_t stop_core = 0;
  std::vector<Word> results;
  std::vector<std::string> traces;
};

/// Run `system` to the halt with one JSONL sink per core attached first,
/// and collect everything the checkpoint promise covers.
[[nodiscard]] FarmEnd finish_farm(sim::SimSystem& system) {
  std::vector<std::unique_ptr<std::ostringstream>> streams;
  for (std::size_t i = 0; i < system.core_count(); ++i) {
    streams.push_back(std::make_unique<std::ostringstream>());
    system.trace_bus(i).add_sink(
        std::make_unique<obs::JsonlSink>(*streams.back()));
  }
  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  FarmEnd end;
  end.stats = system.stats();
  end.link_words = system.machine_engine()->link_words();
  end.stop_core = system.stop_core();
  for (u32 i = 0; i < 8; ++i) {
    end.results.push_back(system.word_on(2, "results", i));
  }
  for (const auto& stream : streams) end.traces.push_back(stream->str());
  return end;
}

void expect_same_farm(const FarmEnd& got, const FarmEnd& want,
                      unsigned workers) {
  EXPECT_EQ(got.stats.cycles, want.stats.cycles) << workers << " workers";
  EXPECT_EQ(got.stats.instructions, want.stats.instructions)
      << workers << " workers";
  EXPECT_EQ(got.stats.fsl_stall_cycles, want.stats.fsl_stall_cycles)
      << workers << " workers";
  EXPECT_EQ(got.link_words, want.link_words) << workers << " workers";
  EXPECT_EQ(got.stop_core, want.stop_core) << workers << " workers";
  EXPECT_EQ(got.results, want.results) << workers << " workers";
  ASSERT_EQ(got.traces.size(), want.traces.size());
  for (std::size_t i = 0; i < got.traces.size(); ++i) {
    EXPECT_EQ(got.traces[i], want.traces[i])
        << workers << " workers, core " << i << " trace diverged";
  }
}

TEST(CkptSystem, FarmRestoreIsByteIdenticalAtAnyWorkerCount) {
  const machine::MachineDesc desc = farm_desc();
  const Cycle quantum = desc.quantum;

  // Baseline: run the whole farm to a quantum boundary, snapshot, then
  // finish with traces on. The traces cover the post-snapshot suffix —
  // exactly what a restored run replays.
  auto base_built = sim::SimSystem::Builder().machine(desc).build();
  ASSERT_TRUE(base_built.ok()) << base_built.error();
  sim::SimSystem base = std::move(base_built).value();
  ASSERT_EQ(base.run(2 * quantum), core::StopReason::kCycleLimit);
  const std::vector<unsigned char> image = base.snapshot();
  const FarmEnd want = finish_farm(base);
  ASSERT_GT(want.link_words, 0u);

  for (const unsigned workers : {1u, 2u, 8u}) {
    auto built =
        sim::SimSystem::Builder().machine(desc).workers(workers).build();
    ASSERT_TRUE(built.ok()) << built.error();
    sim::SimSystem resumed = std::move(built).value();
    ASSERT_TRUE(resumed.restore_image(image).ok) << workers << " workers";
    expect_same_farm(finish_farm(resumed), want, workers);
  }
}

TEST(CkptSystem, MidQuantumDebuggerStopRoundTrips) {
  const machine::MachineDesc desc = farm_desc();

  auto a_built = sim::SimSystem::Builder().machine(desc).build();
  ASSERT_TRUE(a_built.ok()) << a_built.error();
  sim::SimSystem a = std::move(a_built).value();
  core::ManyCoreEngine* engine = a.machine_engine();
  ASSERT_NE(engine, nullptr);

  // Single-step into the middle of the first quantum — a stop point no
  // run() boundary can produce — and snapshot there.
  for (int i = 0; i < 5; ++i) {
    const iss::StepResult step = engine->debug_step(0);
    ASSERT_NE(step.event, iss::Event::kIllegal);
  }
  ASSERT_LT(a.stats().cycles, desc.quantum);
  const std::vector<unsigned char> image = a.snapshot();
  const FarmEnd want = finish_farm(a);

  auto b_built = sim::SimSystem::Builder().machine(desc).build();
  ASSERT_TRUE(b_built.ok()) << b_built.error();
  sim::SimSystem b = std::move(b_built).value();
  ASSERT_TRUE(b.restore_image(image).ok);
  expect_same_farm(finish_farm(b), want, 1);
}

TEST(CkptSystem, FarmImageRejectsATruncatedOrEditedFile) {
  const machine::MachineDesc desc = farm_desc();
  auto built = sim::SimSystem::Builder().machine(desc).build();
  ASSERT_TRUE(built.ok()) << built.error();
  sim::SimSystem system = std::move(built).value();
  ASSERT_EQ(system.run(64), core::StopReason::kCycleLimit);
  std::vector<unsigned char> image = system.snapshot();

  std::vector<unsigned char> truncated(image.begin(),
                                       image.end() - (image.size() / 2));
  expect_code(system.restore_image(truncated).message, 3);

  std::vector<unsigned char> corrupt = image;
  corrupt[corrupt.size() / 2] ^= 0x40;
  expect_code(system.restore_image(corrupt).message, 4);

  // The undamaged image still restores after the failed attempts.
  EXPECT_TRUE(system.restore_image(image).ok);
}

}  // namespace
}  // namespace mbcosim
