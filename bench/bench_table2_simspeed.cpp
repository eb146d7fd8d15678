// Table II: raw simulation speeds (simulated clock cycles per host
// second) of the three simulators the paper compares for the CORDIC
// division application:
//   - the cycle-accurate instruction simulator alone (software side),
//   - the block-level hardware model alone (the Simulink/System Generator
//     analog, hardware peripherals only),
//   - the low-level event-driven RTL simulation of the full system.
// Built on google-benchmark; each benchmark reports a cycles_per_second
// counter, and a summary table is printed at exit. Paper Table II gives
// the same ordering: instruction simulator >> Simulink >> ModelSim, with
// a potential speedup of "5.5X to more than 1000X".
//
// Besides the benchmarks, the binary runs three exit guards:
//   - trace_overhead: a wired-but-sinkless TraceBus must stay almost free;
//   - metrics_overhead: Builder::metrics() must keep the dbt ISS hot loop
//     within 10% of the same loop without metrics;
//   - exec_tier: the three execution tiers (precise, predecode, dbt) must
//     keep simulated cycle and instruction counts bit-identical (ISS alone
//     and full co-simulation) while each tier delivers its guarded
//     wall-clock speedup over the one below it (DESIGN.md §12).
// Pass `--json FILE` (default BENCH_table2.json, `--json none` to
// disable) to also write machine-readable rows for perf tracking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>

#include "apps/cordic/cordic_hw.hpp"
#include "apps/matmul/matmul_app.hpp"
#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "obs/trace_bus.hpp"
#include "sim/sim_system.hpp"

namespace {

using namespace mbcosim;
using namespace mbcosim::bench;

// ---------------------------------------------------------------------------
// Instruction simulator alone: pure-software CORDIC program.
// ---------------------------------------------------------------------------
void BM_InstructionSimulator(benchmark::State& state) {
  const CordicWorkload workload = CordicWorkload::standard(50, 24);
  const auto program = assembler::assemble_or_throw(
      apps::cordic::pure_software_program(
          workload.x, workload.y, workload.iterations,
          apps::cordic::ShiftStrategy::kShiftLoop));
  isa::CpuConfig config;
  config.has_barrel_shifter = false;
  iss::LmbMemory memory;
  memory.load_program(program);
  iss::Processor cpu(config, memory, nullptr);

  Cycle total_cycles = 0;
  for (auto _ : state) {
    cpu.reset(program.entry());
    benchmark::DoNotOptimize(cpu.run(1u << 28));
    total_cycles += cpu.stats().cycles;
  }
  state.counters["cycles_per_second"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InstructionSimulator);

// Same workload with the observability bus attached but carrying no
// sinks — the "compiled in but disabled" configuration whose overhead
// the trace_overhead guard below bounds.
void BM_InstructionSimulatorTracingDisabled(benchmark::State& state) {
  const CordicWorkload workload = CordicWorkload::standard(50, 24);
  const auto program = assembler::assemble_or_throw(
      apps::cordic::pure_software_program(
          workload.x, workload.y, workload.iterations,
          apps::cordic::ShiftStrategy::kShiftLoop));
  isa::CpuConfig config;
  config.has_barrel_shifter = false;
  iss::LmbMemory memory;
  memory.load_program(program);
  iss::Processor cpu(config, memory, nullptr);
  obs::TraceBus bus;  // no sinks: enabled() stays false
  cpu.set_trace_bus(&bus);

  Cycle total_cycles = 0;
  for (auto _ : state) {
    cpu.reset(program.entry());
    benchmark::DoNotOptimize(cpu.run(1u << 28));
    total_cycles += cpu.stats().cycles;
  }
  state.counters["cycles_per_second"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InstructionSimulatorTracingDisabled);

// Tier A/B baselines: identical workload and cycle counts under each
// execution tier. BM_InstructionSimulator above runs the default (dbt:
// superblock threaded code); these two pin the predecode tier (the
// PR-3 batched fast path) and the precise tier (decode every step).
void BM_InstructionSimulatorPredecodeTier(benchmark::State& state) {
  const CordicWorkload workload = CordicWorkload::standard(50, 24);
  const auto program = assembler::assemble_or_throw(
      apps::cordic::pure_software_program(
          workload.x, workload.y, workload.iterations,
          apps::cordic::ShiftStrategy::kShiftLoop));
  isa::CpuConfig config;
  config.has_barrel_shifter = false;
  iss::LmbMemory memory;
  memory.load_program(program);
  iss::Processor cpu(config, memory, nullptr);
  cpu.set_exec_tier(iss::ExecTier::kPredecode);

  Cycle total_cycles = 0;
  for (auto _ : state) {
    cpu.reset(program.entry());
    benchmark::DoNotOptimize(cpu.run(1u << 28));
    total_cycles += cpu.stats().cycles;
  }
  state.counters["cycles_per_second"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InstructionSimulatorPredecodeTier);

void BM_InstructionSimulatorNoPredecode(benchmark::State& state) {
  const CordicWorkload workload = CordicWorkload::standard(50, 24);
  const auto program = assembler::assemble_or_throw(
      apps::cordic::pure_software_program(
          workload.x, workload.y, workload.iterations,
          apps::cordic::ShiftStrategy::kShiftLoop));
  isa::CpuConfig config;
  config.has_barrel_shifter = false;
  iss::LmbMemory memory;
  memory.load_program(program);
  iss::Processor cpu(config, memory, nullptr);
  cpu.set_exec_tier(iss::ExecTier::kPrecise);

  Cycle total_cycles = 0;
  for (auto _ : state) {
    cpu.reset(program.entry());
    benchmark::DoNotOptimize(cpu.run(1u << 28));
    total_cycles += cpu.stats().cycles;
  }
  state.counters["cycles_per_second"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InstructionSimulatorNoPredecode);

// ---------------------------------------------------------------------------
// Hardware block model alone ("Simulink"): the CORDIC pipeline fed by a
// scripted input stream, no processor in the loop.
// ---------------------------------------------------------------------------
void BM_BlockModelHardwareOnly(benchmark::State& state) {
  auto pipeline = apps::cordic::build_cordic_pipeline(4);
  sysgen::Model& model = *pipeline.model;

  Cycle total_cycles = 0;
  for (auto _ : state) {
    // Feed a continuous stream: every third cycle completes a triple.
    pipeline.io.s_exists->set_bool(true);
    pipeline.io.s_control->set_bool(false);
    for (int cycle = 0; cycle < 3000; ++cycle) {
      pipeline.io.s_data->set_raw((cycle * 2654435761u) & 0x00FFFFFFu);
      model.step();
    }
    total_cycles += 3000;
  }
  state.counters["cycles_per_second"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BlockModelHardwareOnly);

// ---------------------------------------------------------------------------
// Full high-level co-simulation (both sides + FSL bridge).
// ---------------------------------------------------------------------------
void BM_CoSimulationFullSystem(benchmark::State& state) {
  const CordicWorkload workload = CordicWorkload::standard(50, 24);
  Cycle total_cycles = 0;
  for (auto _ : state) {
    const auto result = run_cordic_cosim(workload, 4);
    total_cycles += result.cycles;
  }
  state.counters["cycles_per_second"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoSimulationFullSystem);

// ---------------------------------------------------------------------------
// Low-level RTL simulation of the full system (the ModelSim analog).
// ---------------------------------------------------------------------------
void BM_RtlFullSystem(benchmark::State& state) {
  const CordicWorkload workload = CordicWorkload::standard(50, 24);
  Cycle total_cycles = 0;
  for (auto _ : state) {
    double unused = 0;
    total_cycles += run_cordic_rtl(workload, 4, &unused);
  }
  state.counters["cycles_per_second"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RtlFullSystem);

// ---------------------------------------------------------------------------
// trace_overhead guard: the observability layer's cost contract says a
// wired-but-sinkless TraceBus must be almost free (target < 2% on the
// ISS hot loop). Measured as the min of several reps to shed scheduler
// noise; the hard failure threshold is deliberately looser (10%) so the
// guard trips on real regressions, not on a busy CI host.
// ---------------------------------------------------------------------------
int check_trace_overhead() {
  const CordicWorkload workload = CordicWorkload::standard(50, 24);
  const auto program = assembler::assemble_or_throw(
      apps::cordic::pure_software_program(
          workload.x, workload.y, workload.iterations,
          apps::cordic::ShiftStrategy::kShiftLoop));
  isa::CpuConfig config;
  config.has_barrel_shifter = false;

  const auto run_once = [&](obs::TraceBus* bus) {
    iss::LmbMemory memory;
    memory.load_program(program);
    iss::Processor cpu(config, memory, nullptr);
    cpu.set_trace_bus(bus);
    cpu.reset(program.entry());
    Stopwatch watch;
    cpu.run(1u << 28);
    return watch.elapsed_seconds();
  };

  constexpr int kReps = 5;
  double baseline = 1e300;
  double disabled = 1e300;
  obs::TraceBus bus;  // no sinks attached
  run_once(nullptr);  // warm caches before timing
  for (int rep = 0; rep < kReps; ++rep) {
    baseline = std::min(baseline, run_once(nullptr));
    disabled = std::min(disabled, run_once(&bus));
  }

  const double overhead = disabled / baseline - 1.0;
  constexpr double kTargetOverhead = 0.02;
  constexpr double kFailOverhead = 0.10;
  std::printf(
      "\ntrace_overhead guard: ISS with sinkless TraceBus vs no bus: "
      "%+.2f%% (target < %.0f%%, fail >= %.0f%%)\n",
      overhead * 100.0, kTargetOverhead * 100.0, kFailOverhead * 100.0);
  if (overhead >= kFailOverhead) {
    std::fprintf(stderr,
                 "trace_overhead guard FAILED: disabled observability "
                 "costs %.2f%% on the ISS hot loop\n",
                 overhead * 100.0);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// metrics_overhead guard: metrics are typed counters the components bump
// at batch boundaries, not a trace sink, so Builder::metrics() leaves the
// dbt tier running. The guard times the dbt ISS hot loop through a
// SimSystem built with and without metrics, alternating the two builds
// and keeping the min of each, and fails above 1.10x.
// ---------------------------------------------------------------------------
int check_metrics_overhead(JsonReport& report) {
  const CordicWorkload workload = CordicWorkload::standard(500, 24);
  machine::MachineDesc desc = machine::MachineDesc::single_core(
      apps::cordic::pure_software_program(
          workload.x, workload.y, workload.iterations,
          apps::cordic::ShiftStrategy::kShiftLoop));
  desc.cores.front().has_barrel_shifter = false;

  const auto build = [&](bool metrics) {
    sim::SimSystem::Builder builder;
    builder.machine(desc);
    if (metrics) builder.metrics();
    auto built = builder.build();
    if (!built.ok()) {
      std::fprintf(stderr, "metrics_overhead guard: %s\n",
                   built.error().c_str());
      std::exit(1);
    }
    return std::move(built).value();
  };
  sim::SimSystem plain = build(false);
  sim::SimSystem metered = build(true);
  const auto run_once = [](sim::SimSystem& system) {
    system.reset();
    if (system.run() != core::StopReason::kHalted) {
      std::fprintf(stderr, "metrics_overhead guard: the loop did not halt\n");
      std::exit(1);
    }
    return system.run_wall_seconds();
  };

  constexpr int kReps = 9;
  double best_plain = 1e300;
  double best_metered = 1e300;
  run_once(plain);  // warm caches before timing
  run_once(metered);
  for (int rep = 0; rep < kReps; ++rep) {
    best_plain = std::min(best_plain, run_once(plain));
    best_metered = std::min(best_metered, run_once(metered));
  }
  const double ratio = best_metered / best_plain;
  const u64 fast_path = metered.dbt_stats().dbt_instructions;
  constexpr double kFailRatio = 1.10;
  std::printf(
      "metrics_overhead guard: dbt ISS hot loop with metrics %.5fs vs "
      "without %.5fs: %.3fx (fail > %.2fx); %llu instructions on the "
      "translated fast path\n",
      best_metered, best_plain, ratio, kFailRatio,
      static_cast<unsigned long long>(fast_path));
  const Cycle cycles = plain.stats().cycles;
  report.add("iss_cordic_dbt_plain", cycles, best_plain);
  report.add("iss_cordic_dbt_metrics", cycles, best_metered);
  if (ratio > kFailRatio || fast_path == 0) {
    std::fprintf(stderr,
                 "metrics_overhead guard FAILED: metrics cost %.3fx on the "
                 "dbt ISS hot loop (%llu fast-path instructions)\n",
                 ratio, static_cast<unsigned long long>(fast_path));
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// exec_tier guard: the three execution tiers must (a) leave every
// simulated CpuStats/CoSimStats count bit-identical on the pure ISS
// *and* the full co-simulation (CORDIC + matmul), and (b) each deliver
// its guarded wall-clock speedup on the ISS hot loop:
//   predecode over precise: >= 1.3x (PR-3 floor, acceptance target 2x),
//   dbt over predecode:     >= 2.0x (this tier's acceptance bar).
// The identity checks are hard failures at any deviation.
// ---------------------------------------------------------------------------
constexpr iss::ExecTier kTiers[] = {
    iss::ExecTier::kPrecise, iss::ExecTier::kPredecode, iss::ExecTier::kDbt};

int check_exec_tiers(JsonReport& report) {
  const CordicWorkload workload = CordicWorkload::standard(50, 24);
  const auto program = assembler::assemble_or_throw(
      apps::cordic::pure_software_program(
          workload.x, workload.y, workload.iterations,
          apps::cordic::ShiftStrategy::kShiftLoop));
  isa::CpuConfig config;
  config.has_barrel_shifter = false;

  const auto run_once = [&](iss::ExecTier tier, iss::CpuStats* stats) {
    iss::LmbMemory memory;
    memory.load_program(program);
    iss::Processor cpu(config, memory, nullptr);
    cpu.set_exec_tier(tier);
    cpu.reset(program.entry());
    Stopwatch watch;
    cpu.run(1u << 28);
    const double seconds = watch.elapsed_seconds();
    if (stats != nullptr) *stats = cpu.stats();
    return seconds;
  };

  int failures = 0;
  const auto check_equal = [&](const char* what, iss::ExecTier tier, u64 got,
                               u64 want) {
    if (got != want) {
      std::fprintf(stderr,
                   "exec_tier guard FAILED: %s differ: %llu (%s) vs "
                   "%llu (precise)\n",
                   what, static_cast<unsigned long long>(got),
                   iss::to_string(tier), static_cast<unsigned long long>(want));
      ++failures;
    }
  };

  // (a) identity, pure ISS: every CpuStats field the run accumulates,
  // with the precise tier as the reference.
  iss::CpuStats tier_stats[3];
  for (int t = 0; t < 3; ++t) run_once(kTiers[t], &tier_stats[t]);
  for (int t = 1; t < 3; ++t) {
    const iss::ExecTier tier = kTiers[t];
    check_equal("ISS cycles", tier, tier_stats[t].cycles,
                tier_stats[0].cycles);
    check_equal("ISS instructions", tier, tier_stats[t].instructions,
                tier_stats[0].instructions);
    check_equal("ISS loads", tier, tier_stats[t].loads, tier_stats[0].loads);
    check_equal("ISS stores", tier, tier_stats[t].stores,
                tier_stats[0].stores);
    check_equal("ISS branches", tier, tier_stats[t].branches,
                tier_stats[0].branches);
    check_equal("ISS branches_taken", tier, tier_stats[t].branches_taken,
                tier_stats[0].branches_taken);
  }

  // (a) identity, full co-simulation (FSL quanta + quiescence window).
  const auto cosim_stats = [&](iss::ExecTier tier, double* wall) {
    apps::cordic::CordicRunConfig cosim_config;
    cosim_config.num_pes = 4;
    cosim_config.iterations = workload.iterations;
    cosim_config.items = static_cast<unsigned>(workload.x.size());
    auto built =
        apps::cordic::make_cordic_system(cosim_config, workload.x, workload.y);
    if (!built.ok()) {
      std::fprintf(stderr, "exec_tier guard: cordic system: %s\n",
                   built.error().c_str());
      std::exit(1);
    }
    sim::SimSystem system = std::move(built).value();
    system.cpu().set_exec_tier(tier);
    if (system.run() != core::StopReason::kHalted) {
      std::fprintf(stderr, "exec_tier guard: cordic cosim did not halt\n");
      std::exit(1);
    }
    if (wall != nullptr) *wall = system.run_wall_seconds();
    return system.stats();
  };
  core::CoSimStats cosim_tier[3];
  double cosim_seconds[3] = {};
  for (int t = 0; t < 3; ++t) {
    cosim_tier[t] = cosim_stats(kTiers[t], &cosim_seconds[t]);
  }
  for (int t = 1; t < 3; ++t) {
    const iss::ExecTier tier = kTiers[t];
    check_equal("cosim cycles", tier, cosim_tier[t].cycles,
                cosim_tier[0].cycles);
    check_equal("cosim instructions", tier, cosim_tier[t].instructions,
                cosim_tier[0].instructions);
    check_equal("cosim fsl_stall_cycles", tier, cosim_tier[t].fsl_stall_cycles,
                cosim_tier[0].fsl_stall_cycles);
    check_equal("cosim hw_cycles_stepped", tier,
                cosim_tier[t].hw_cycles_stepped,
                cosim_tier[0].hw_cycles_stepped);
    check_equal("cosim hw_cycles_skipped", tier,
                cosim_tier[t].hw_cycles_skipped,
                cosim_tier[0].hw_cycles_skipped);
  }

  // (a) identity, matmul app (second workload shape: OPB-free, multiplier).
  const auto matmul_stats = [&](iss::ExecTier tier) {
    apps::matmul::MatmulRunConfig matmul_config;
    matmul_config.matrix_size = 8;
    matmul_config.block_size = 2;
    const auto a = apps::matmul::make_matrix(8, 1);
    const auto b = apps::matmul::make_matrix(8, 2);
    auto built = apps::matmul::make_matmul_system(matmul_config, a, b);
    if (!built.ok()) {
      std::fprintf(stderr, "exec_tier guard: matmul system: %s\n",
                   built.error().c_str());
      std::exit(1);
    }
    sim::SimSystem system = std::move(built).value();
    system.cpu().set_exec_tier(tier);
    if (system.run() != core::StopReason::kHalted) {
      std::fprintf(stderr, "exec_tier guard: matmul cosim did not halt\n");
      std::exit(1);
    }
    return system.stats();
  };
  core::CoSimStats matmul_tier[3];
  for (int t = 0; t < 3; ++t) matmul_tier[t] = matmul_stats(kTiers[t]);
  for (int t = 1; t < 3; ++t) {
    const iss::ExecTier tier = kTiers[t];
    check_equal("matmul cycles", tier, matmul_tier[t].cycles,
                matmul_tier[0].cycles);
    check_equal("matmul instructions", tier, matmul_tier[t].instructions,
                matmul_tier[0].instructions);
  }

  // (b) wall-clock speedups on the ISS hot loop, min over reps.
  constexpr int kReps = 5;
  double best[3] = {1e300, 1e300, 1e300};
  for (int rep = 0; rep < kReps; ++rep) {
    for (int t = 0; t < 3; ++t) {
      best[t] = std::min(best[t], run_once(kTiers[t], nullptr));
    }
  }
  const double predecode_speedup = best[0] / best[1];
  const double dbt_speedup = best[1] / best[2];
  constexpr double kFailPredecodeSpeedup = 1.3;
  constexpr double kFailDbtSpeedup = 2.0;
  std::printf(
      "exec_tier guard: ISS hot loop precise %.4fs, predecode %.4fs "
      "(%.2fx, fail < %.1fx), dbt %.4fs (%.2fx over predecode, fail < "
      "%.1fx); all simulated counts identical on ISS, CORDIC cosim and "
      "matmul cosim\n",
      best[0], best[1], predecode_speedup, kFailPredecodeSpeedup, best[2],
      dbt_speedup, kFailDbtSpeedup);
  if (predecode_speedup < kFailPredecodeSpeedup) {
    std::fprintf(stderr,
                 "exec_tier guard FAILED: predecode tier is only %.2fx "
                 "over precise\n",
                 predecode_speedup);
    ++failures;
  }
  if (dbt_speedup < kFailDbtSpeedup) {
    std::fprintf(stderr,
                 "exec_tier guard FAILED: dbt tier is only %.2fx over "
                 "the predecode tier (acceptance bar >= 2x)\n",
                 dbt_speedup);
    ++failures;
  }

  for (int t = 0; t < 3; ++t) {
    const std::string tier_name = iss::to_string(kTiers[t]);
    report.add("iss_cordic_" + tier_name, tier_stats[t].cycles, best[t]);
    report.add("cosim_cordic_p4_" + tier_name, cosim_tier[t].cycles,
               cosim_seconds[t]);
  }
  return failures == 0 ? 0 : 1;
}

int emit_rtl_row(JsonReport& report) {
  const CordicWorkload workload = CordicWorkload::standard(50, 24);
  double wall = 0;
  const Cycle cycles = run_cordic_rtl(workload, 4, &wall);
  report.add("rtl_cordic_p4", cycles, wall);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      take_json_path_arg(argc, argv, "BENCH_table2.json");
  std::printf(
      "Table II reproduction: simulator speeds in simulated clock cycles "
      "per host second.\nPaper (cycles/sec): instruction simulator ~1.9e5, "
      "Simulink (HW only) ~1.3e3, ModelSim behavioral ~240.\nExpected "
      "ordering here: BM_InstructionSimulator >> BM_CoSimulationFullSystem "
      ">~ BM_BlockModelHardwareOnly >> BM_RtlFullSystem\n(the HW-only bench "
      "keeps the pipeline full every cycle; the full co-simulation "
      "interleaves cheap ISS cycles\nand skips quiescent hardware cycles, "
      "as the paper's environment does).\n\n");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  JsonReport report("table2_simspeed");
  int failures = check_trace_overhead();
  failures += check_metrics_overhead(report);
  failures += check_exec_tiers(report);
  failures += emit_rtl_row(report);
  if (!report.write(json_path)) ++failures;
  return failures == 0 ? 0 : 1;
}
