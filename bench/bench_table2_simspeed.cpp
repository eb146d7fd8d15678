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
//   - exec_tier: the two execution tiers (precise, dbt) must keep
//     simulated cycle and instruction counts bit-identical (ISS alone and
//     full co-simulation) while dbt runs the ISS hot loop at least 2.6x
//     faster than precise, and retires at least 99% of the CORDIC and
//     matmul co-simulations' instructions inside superblocks
//     (DESIGN.md §12).
// Pass `--json FILE` (default BENCH_table2.json, `--json none` to
// disable) to also write machine-readable rows for perf tracking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>

#include "apps/cordic/cordic_hw.hpp"
#include "apps/matmul/matmul_app.hpp"
#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/cosim_engine.hpp"
#include "obs/trace_bus.hpp"
#include "sim/sim_system.hpp"

namespace {

using namespace mbcosim;
using namespace mbcosim::bench;

// ---------------------------------------------------------------------------
// Instruction simulator alone: pure-software CORDIC program on one core
// with no peripheral, driven by the co-simulation loop.
// ---------------------------------------------------------------------------
assembler::Program iss_loop_program() {
  const CordicWorkload workload = CordicWorkload::standard(50, 24);
  return assembler::assemble_or_throw(apps::cordic::pure_software_program(
      workload.x, workload.y, workload.iterations,
      apps::cordic::ShiftStrategy::kShiftLoop));
}

isa::CpuConfig iss_loop_config() {
  isa::CpuConfig config;
  config.has_barrel_shifter = false;
  return config;
}

struct IssLoop {
  IssLoop(const assembler::Program& program, iss::ExecTier tier,
          obs::TraceBus* bus = nullptr)
      : program(program), cpu(iss_loop_config(), memory, nullptr) {
    memory.load_program(program);
    cpu.set_exec_tier(tier);
    cpu.set_trace_bus(bus);
  }

  /// One run from reset to the halt; returns the simulated cycles.
  Cycle run() {
    engine.reset(program.entry());
    engine.run(1u << 28);
    return cpu.stats().cycles;
  }

  const assembler::Program& program;
  iss::LmbMemory memory;
  fsl::FslHub hub;
  iss::Processor cpu;
  core::CoSimEngine engine{cpu, nullptr, hub};
};

void run_iss_loop(benchmark::State& state, iss::ExecTier tier,
                  obs::TraceBus* bus) {
  const assembler::Program program = iss_loop_program();
  IssLoop loop(program, tier, bus);
  Cycle total_cycles = 0;
  for (auto _ : state) {
    const Cycle cycles = loop.run();
    benchmark::DoNotOptimize(cycles);
    total_cycles += cycles;
  }
  state.counters["cycles_per_second"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}

// The default tier (dbt: superblock threaded code).
void BM_InstructionSimulator(benchmark::State& state) {
  run_iss_loop(state, iss::ExecTier::kDbt, nullptr);
}
BENCHMARK(BM_InstructionSimulator);

// Same workload with the observability bus attached but carrying no
// sinks — the "compiled in but disabled" configuration whose overhead
// the trace_overhead guard below bounds.
void BM_InstructionSimulatorTracingDisabled(benchmark::State& state) {
  obs::TraceBus bus;  // no sinks: enabled() stays false
  run_iss_loop(state, iss::ExecTier::kDbt, &bus);
}
BENCHMARK(BM_InstructionSimulatorTracingDisabled);

// Identical workload and cycle counts at the precise tier (decode every
// step), the reference the dbt tier is measured against.
void BM_InstructionSimulatorPreciseTier(benchmark::State& state) {
  run_iss_loop(state, iss::ExecTier::kPrecise, nullptr);
}
BENCHMARK(BM_InstructionSimulatorPreciseTier);

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
  const assembler::Program program = iss_loop_program();
  const auto run_once = [&](obs::TraceBus* bus) {
    IssLoop loop(program, iss::ExecTier::kDbt, bus);
    Stopwatch watch;
    loop.run();
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
// exec_tier guard: the two execution tiers must (a) leave every
// simulated CpuStats/CoSimStats count bit-identical on the pure ISS
// *and* the full co-simulation (CORDIC + matmul), (b) dbt must run the
// ISS hot loop at least 2.6x faster than precise, and (c) at the dbt
// tier both co-simulations must retire at least 99% of their
// instructions inside superblocks: FSL accesses run stitched, so a
// fallback to precise steps, which (a) cannot see, fails here.
// The identity and coverage checks are hard failures at any deviation.
// ---------------------------------------------------------------------------
constexpr iss::ExecTier kTiers[] = {iss::ExecTier::kPrecise,
                                    iss::ExecTier::kDbt};
constexpr int kNumTiers = 2;

int check_exec_tiers(JsonReport& report) {
  const CordicWorkload workload = CordicWorkload::standard(50, 24);
  const assembler::Program program = iss_loop_program();
  const auto run_once = [&](iss::ExecTier tier, iss::CpuStats* stats) {
    IssLoop loop(program, tier);
    Stopwatch watch;
    loop.run();
    const double seconds = watch.elapsed_seconds();
    if (stats != nullptr) *stats = loop.cpu.stats();
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
  iss::CpuStats tier_stats[kNumTiers];
  for (int t = 0; t < kNumTiers; ++t) run_once(kTiers[t], &tier_stats[t]);
  for (int t = 1; t < kNumTiers; ++t) {
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

  // The two co-simulations: CORDIC P=4 over `items` items, and matmul
  // N=`size` with 2x2 blocks (OPB-free, multiplier), run to the halt.
  const auto run_cordic = [&](iss::ExecTier tier, unsigned items) {
    const CordicWorkload data = items == workload.x.size()
                                    ? workload
                                    : CordicWorkload::standard(
                                          items, workload.iterations);
    apps::cordic::CordicRunConfig cosim_config;
    cosim_config.num_pes = 4;
    cosim_config.iterations = data.iterations;
    cosim_config.items = items;
    auto built = apps::cordic::make_cordic_system(cosim_config, data.x, data.y);
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
    return system;
  };
  const auto run_matmul = [&](iss::ExecTier tier, unsigned size) {
    apps::matmul::MatmulRunConfig matmul_config;
    matmul_config.matrix_size = size;
    matmul_config.block_size = 2;
    const auto a = apps::matmul::make_matrix(size, 1);
    const auto b = apps::matmul::make_matrix(size, 2);
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
    return system;
  };

  // The share of a dbt-tier run's instructions retired inside
  // superblocks.
  const auto dbt_coverage = [](const sim::SimSystem& system) {
    return static_cast<double>(system.cpu().dbt_stats().dbt_instructions) /
           static_cast<double>(std::max<u64>(system.stats().instructions, 1));
  };
  double identity_coverage[2] = {};  // CORDIC, matmul at the dbt tier

  // (a) identity, full co-simulation (FSL quanta + quiescence window).
  core::CoSimStats cosim_tier[kNumTiers];
  double cosim_seconds[kNumTiers] = {};
  for (int t = 0; t < kNumTiers; ++t) {
    const sim::SimSystem system =
        run_cordic(kTiers[t], static_cast<unsigned>(workload.x.size()));
    cosim_tier[t] = system.stats();
    cosim_seconds[t] = system.run_wall_seconds();
    if (kTiers[t] == iss::ExecTier::kDbt) {
      identity_coverage[0] = dbt_coverage(system);
    }
  }
  for (int t = 1; t < kNumTiers; ++t) {
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
  core::CoSimStats matmul_tier[kNumTiers];
  for (int t = 0; t < kNumTiers; ++t) {
    const sim::SimSystem system = run_matmul(kTiers[t], 8);
    matmul_tier[t] = system.stats();
    if (kTiers[t] == iss::ExecTier::kDbt) {
      identity_coverage[1] = dbt_coverage(system);
    }
  }
  for (int t = 1; t < kNumTiers; ++t) {
    const iss::ExecTier tier = kTiers[t];
    check_equal("matmul cycles", tier, matmul_tier[t].cycles,
                matmul_tier[0].cycles);
    check_equal("matmul instructions", tier, matmul_tier[t].instructions,
                matmul_tier[0].instructions);
  }

  // (c) coverage: the share of the instructions retired inside
  // superblocks at the dbt tier. Every block head runs through step()
  // until it is promoted, and the short runs above spend part of their
  // instructions in that warm-up (printed, not gated), so coverage is
  // checked on runs long enough to make it noise: CORDIC over 1000
  // items, matmul N=32.
  std::printf(
      "exec_tier guard: the identity runs retire %.4f (CORDIC) and %.4f "
      "(matmul N=8) of their instructions inside superblocks\n",
      identity_coverage[0], identity_coverage[1]);
  constexpr double kMinDbtCoverage = 0.99;
  const auto check_coverage = [&](const char* what,
                                  const sim::SimSystem& system) {
    const u64 instructions = system.stats().instructions;
    const double coverage = dbt_coverage(system);
    std::printf(
        "exec_tier guard: %s retires %.4f of %llu instructions inside "
        "superblocks (fail < %.2f)\n",
        what, coverage, static_cast<unsigned long long>(instructions),
        kMinDbtCoverage);
    if (coverage < kMinDbtCoverage) {
      std::fprintf(stderr,
                   "exec_tier guard FAILED: %s retires only %.4f of its "
                   "instructions inside superblocks (floor %.2f)\n",
                   what, coverage, kMinDbtCoverage);
      ++failures;
    }
  };
  check_coverage("cordic cosim", run_cordic(iss::ExecTier::kDbt, 1000));
  check_coverage("matmul cosim", run_matmul(iss::ExecTier::kDbt, 32));

  // (b) wall-clock speedup on the ISS hot loop, min over reps.
  constexpr int kReps = 5;
  double best[kNumTiers] = {1e300, 1e300};
  for (int rep = 0; rep < kReps; ++rep) {
    for (int t = 0; t < kNumTiers; ++t) {
      best[t] = std::min(best[t], run_once(kTiers[t], nullptr));
    }
  }
  const double dbt_speedup = best[0] / best[1];
  constexpr double kFailDbtSpeedup = 2.6;
  std::printf(
      "exec_tier guard: ISS hot loop precise %.4fs, dbt %.4fs (%.2fx, "
      "fail < %.1fx); all simulated counts identical on ISS, CORDIC "
      "cosim and matmul cosim\n",
      best[0], best[1], dbt_speedup, kFailDbtSpeedup);
  if (dbt_speedup < kFailDbtSpeedup) {
    std::fprintf(stderr,
                 "exec_tier guard FAILED: dbt tier is only %.2fx over "
                 "the precise tier (floor %.1fx)\n",
                 dbt_speedup, kFailDbtSpeedup);
    ++failures;
  }

  for (int t = 0; t < kNumTiers; ++t) {
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
