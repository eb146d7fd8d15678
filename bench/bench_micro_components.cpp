// Micro-benchmarks (google-benchmark) of the individual substrates:
// instruction throughput of the ISS, block-model step rate, FSL FIFO
// operations, fixed-point arithmetic, event-kernel throughput and the
// manycore engine's quantum rounds. These are the constants behind the
// system-level numbers in Tables I/II and the hosted farm.
#include <benchmark/benchmark.h>

#include "apps/cordic/cordic_hw.hpp"
#include "apps/cordic/cordic_reference.hpp"
#include "apps/machine_peripherals.hpp"
#include "bench_common.hpp"
#include "rtl/kernel.hpp"
#include "rtl/primitives.hpp"
#include "sim/sim_system.hpp"

namespace {

using namespace mbcosim;
using namespace mbcosim::bench;

void BM_IssInstructionThroughput(benchmark::State& state) {
  // Tight ALU loop: measures retired instructions per second.
  const auto program = assembler::assemble_or_throw(
      "  li r3, 1000000\n"
      "loop:\n"
      "  add r4, r4, r3\n"
      "  xor r5, r4, r3\n"
      "  addik r3, r3, -1\n"
      "  bnei r3, loop\n"
      "  halt\n");
  iss::LmbMemory memory;
  memory.load_program(program);
  iss::Processor cpu(isa::CpuConfig{}, memory, nullptr);
  u64 instructions = 0;
  for (auto _ : state) {
    cpu.reset(program.entry());
    benchmark::DoNotOptimize(cpu.run(1u << 30));
    instructions += cpu.stats().instructions;
  }
  state.counters["instructions_per_second"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IssInstructionThroughput);

// One full pass over the tape per cycle: a new FSL word arrives every
// cycle, so no step repeats the last one.
void BM_SysgenModelStep(benchmark::State& state) {
  auto pipeline =
      apps::cordic::build_cordic_pipeline(static_cast<unsigned>(state.range(0)));
  pipeline.io.s_exists->set_bool(true);
  u64 cycles = 0;
  for (auto _ : state) {
    pipeline.io.s_data->set_raw(static_cast<i64>(cycles));
    pipeline.model->step();
    ++cycles;
  }
  state.counters["hw_cycles_per_second"] =
      benchmark::Counter(static_cast<double>(cycles),
                         benchmark::Counter::kIsRate);
  state.counters["blocks"] =
      static_cast<double>(pipeline.model->block_count());
}
BENCHMARK(BM_SysgenModelStep)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// One CORDIC item travelling through an otherwise idle pipeline: every
// P + 8 cycles the FSL presents a control word and an (X, Y, Z) triple,
// then nothing. Most stepped cycles change one stage, so each pass runs
// only the few regions whose inputs changed (DESIGN.md §15).
void BM_SysgenModelStepSparse(benchmark::State& state) {
  const auto pes = static_cast<unsigned>(state.range(0));
  auto pipeline = apps::cordic::build_cordic_pipeline(pes);
  const core::FslPort& io = pipeline.io;
  const u64 period = pes + 8;
  u64 cycles = 0;
  for (auto _ : state) {
    const u64 phase = cycles % period;
    const i64 item = static_cast<i64>(cycles / period);
    io.s_exists->set_bool(phase < 4);
    io.s_control->set_bool(phase == 0);
    io.s_data->set_raw(phase == 0   ? 0
                       : phase == 1 ? apps::cordic::kOneRaw + item
                       : phase == 2 ? (item % 97) << 16
                                    : 0);
    pipeline.model->step();
    ++cycles;
  }
  state.counters["hw_cycles_per_second"] =
      benchmark::Counter(static_cast<double>(cycles),
                         benchmark::Counter::kIsRate);
  state.counters["regions"] =
      static_cast<double>(pipeline.model->region_count());
}
BENCHMARK(BM_SysgenModelStepSparse)->Arg(4)->Arg(8)->Arg(16);

// An elided step: the idle pipeline has drained and its inputs hold, so
// each step repeats the last one (Model::settled()).
void BM_SysgenModelStepSettled(benchmark::State& state) {
  auto pipeline =
      apps::cordic::build_cordic_pipeline(static_cast<unsigned>(state.range(0)));
  pipeline.io.s_exists->set_bool(false);
  pipeline.model->run(static_cast<Cycle>(state.range(0)) + 16);
  if (!pipeline.model->settled()) state.SkipWithError("did not settle");
  u64 cycles = 0;
  for (auto _ : state) {
    pipeline.io.s_exists->set_bool(false);
    pipeline.model->step();
    ++cycles;
  }
  state.counters["hw_cycles_per_second"] =
      benchmark::Counter(static_cast<double>(cycles),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SysgenModelStepSettled)->Arg(2)->Arg(4)->Arg(8);

// Building a CORDIC pipeline model and elaborating it: block and signal
// construction, topological order, lowering and the region partition.
void BM_SysgenElaborate(benchmark::State& state) {
  const auto pes = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto pipeline = apps::cordic::build_cordic_pipeline(pes);
    benchmark::DoNotOptimize(pipeline.model->region_count());
  }
}
BENCHMARK(BM_SysgenElaborate)->Arg(1)->Arg(8)->Arg(16);

// The quantum-round engine on CORDIC farms built from a MachineDesc,
// advanced in 6,400-cycle chunks the way a hosted session runs them.
// range(0) farms side by side (1 = the 3-core farm: one busy 16-PE
// worker core; 4 = four busy worker cores), range(1) engine workers.
void BM_ManyCoreFarm(benchmark::State& state) {
  constexpr Cycle kChunk = 6'400;
  apps::register_machine_peripherals();
  auto built = sim::SimSystem::Builder()
                   .machine(cordic_farm(static_cast<unsigned>(state.range(0)),
                                        1'000'000))
                   .workers(static_cast<unsigned>(state.range(1)))
                   .build();
  if (!built.ok()) {
    state.SkipWithError(built.error().c_str());
    return;
  }
  sim::SimSystem system = std::move(built).value();
  Cycle target = 0;
  for (auto _ : state) {
    target += kChunk;
    benchmark::DoNotOptimize(system.run(target));
  }
  state.counters["sim_cycles_per_second"] = benchmark::Counter(
      static_cast<double>(target), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ManyCoreFarm)
    ->ArgsProduct({{1, 4}, {1, 2, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FslChannelOps(benchmark::State& state) {
  fsl::FslChannel channel(16);
  u64 ops = 0;
  for (auto _ : state) {
    channel.try_write(42, false);
    benchmark::DoNotOptimize(channel.try_read());
    ops += 2;
  }
  state.counters["ops_per_second"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FslChannelOps);

void BM_FixMultiply(benchmark::State& state) {
  const Fix a = Fix::from_double(FixFormat::signed_fix(32, 24), 1.2345);
  const Fix b = Fix::from_double(FixFormat::signed_fix(32, 24), -0.9876);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        a.mul_full(b).cast(FixFormat::signed_fix(32, 24)));
  }
}
BENCHMARK(BM_FixMultiply);

void BM_RtlRippleAdd32(benchmark::State& state) {
  const auto a = rtl::LogicVector::of(32, 0xDEADBEEF);
  const auto b = rtl::LogicVector::of(32, 0x12345678);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rtl::rc_add(a, b));
  }
}
BENCHMARK(BM_RtlRippleAdd32);

void BM_RtlArrayMultiply32(benchmark::State& state) {
  const auto a = rtl::LogicVector::of(32, 0xDEADBEEF);
  const auto b = rtl::LogicVector::of(32, 0x12345678);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rtl::array_multiply(a, b));
  }
}
BENCHMARK(BM_RtlArrayMultiply32);

void BM_RtlKernelEventThroughput(benchmark::State& state) {
  rtl::Simulator sim;
  rtl::Net& clk = sim.net("clk", 1, 0);
  rtl::Net& counter = sim.net("counter", 32, 0);
  sim.process("count", {&clk}, [&] {
    if (clk.rose()) sim.assign(counter, counter.read().bits + 1);
  });
  sim.start();
  u64 cycles = 0;
  for (auto _ : state) {
    sim.tick(clk);
    ++cycles;
  }
  state.counters["kernel_cycles_per_second"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RtlKernelEventThroughput);

}  // namespace

BENCHMARK_MAIN();
