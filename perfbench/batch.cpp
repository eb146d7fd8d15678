// The batch workloads: one op builds one single-core system through
// machine::MachineDesc, runs it to halt, and checks every output against
// the application's bit-exact reference and the simulated cycle count
// recorded for its design point.
//
//   dse_paper    the paper's design-space exploration (Fig. 5 CORDIC
//                P in {1,2,4,8} x {24,32} iterations, Fig. 7 matmul
//                blocks 2 and 4 at N=16); ~94% of host time is the
//                sysgen block kernel.
//   sw_batch     pure-software programs on the default dbt tier with no
//                sinks: the ISS and the assembler, sysgen idle.
//
// The traced run also replays each program once with Builder::metrics(),
// as every hosted session and `mbcsim --metrics` run it, to measure the
// obs layer.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/cordic/cordic_app.hpp"
#include "apps/machine_peripherals.hpp"
#include "apps/matmul/matmul_app.hpp"
#include "asm/assembler.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "machine/machine_desc.hpp"
#include "sim/sim_system.hpp"

namespace perfbench {

namespace {

using namespace mbcosim;

enum class App : u8 { kCordic, kMatmul };

/// One design point and its recorded simulated cycle count, checked
/// exactly on every op. The hardware points and matmul take the same
/// cycles on any data. The software divider branches on the sign of Y
/// once per iteration, so its count is `cycles` plus `per_step` for every
/// iteration that starts with Y >= 0 (counted on the reference), which
/// takes the extra `bri` of the not-taken path.
struct Point {
  const char* name;
  App app;
  unsigned hw;          ///< cordic num_pes / matmul block_size; 0 = software
  unsigned iterations;  ///< cordic only
  unsigned size;        ///< cordic items / matmul N
  Cycle cycles;         ///< recorded simulated cycle count
  Cycle per_step = 0;
};

struct Workload {
  const char* name;
  std::vector<Point> points;
};

constexpr unsigned kDseItems = 50;
constexpr unsigned kSwItems = 1000;
constexpr unsigned kSwMatrix = 48;

const std::vector<Point>& dse_points() {
  static const std::vector<Point> points = {
      {"cordic_p1_i24", App::kCordic, 1, 24, kDseItems, 49812},
      {"cordic_p2_i24", App::kCordic, 2, 24, kDseItems, 25692},
      {"cordic_p4_i24", App::kCordic, 4, 24, kDseItems, 13632},
      {"cordic_p8_i24", App::kCordic, 8, 24, kDseItems, 7602},
      {"cordic_p1_i32", App::kCordic, 1, 32, kDseItems, 65892},
      {"cordic_p2_i32", App::kCordic, 2, 32, kDseItems, 33732},
      {"cordic_p4_i32", App::kCordic, 4, 32, kDseItems, 17652},
      {"cordic_p8_i32", App::kCordic, 8, 32, kDseItems, 9612},
      {"matmul_b2_n16", App::kMatmul, 2, 0, 16, 64003},
      {"matmul_b4_n16", App::kMatmul, 4, 0, 16, 28183},
  };
  return points;
}

const std::vector<Point>& sw_points() {
  static const std::vector<Point> points = {
      {"cordic_sw_i24", App::kCordic, 0, 24, kSwItems, 1960014, 1},
      {"matmul_sw_n48", App::kMatmul, 0, 0, kSwMatrix, 1573931},
  };
  return points;
}

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> workloads = {
      {"dse_paper", dse_points()},
      {"sw_batch", sw_points()},
  };
  for (const Workload& workload : workloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

/// The generated inputs of one op.
struct OpData {
  std::vector<i32> x;  ///< cordic divisors
  std::vector<i32> y;  ///< cordic dividends
  apps::matmul::Matrix a{0};
  apps::matmul::Matrix b{0};
};

/// What the op produced, read back from the simulated system.
struct OpOutput {
  core::StopReason stop = core::StopReason::kCycleLimit;
  core::CoSimStats stats;
  std::vector<i32> values;  ///< cordic quotients / matmul C, row-major
};

OpData make_data(const Point& point, u64 seed) {
  OpData data;
  if (point.app == App::kCordic) {
    std::tie(data.x, data.y) =
        apps::cordic::make_cordic_dataset(point.size, seed);
  } else {
    data.a = apps::matmul::make_matrix(point.size, seed);
    data.b = apps::matmul::make_matrix(point.size, derive_seed(seed, 1));
  }
  return data;
}

std::string make_source(const Point& point, const OpData& data) {
  if (point.app == App::kCordic) {
    return point.hw == 0
               ? apps::cordic::pure_software_program(
                     data.x, data.y, point.iterations,
                     apps::cordic::ShiftStrategy::kShiftLoop)
               : apps::cordic::hw_driver_program(data.x, data.y,
                                                 point.iterations, point.hw);
  }
  return point.hw == 0
             ? apps::matmul::pure_software_program(data.a, data.b)
             : apps::matmul::hw_driver_program(data.a, data.b, point.hw);
}

/// The processor configuration the apps' own drivers use: multiplier on,
/// no barrel shifter (the shift-loop divider), 256 KiB for matmul.
machine::MachineDesc make_desc(const Point& point, std::string source) {
  machine::MachineDesc desc = machine::MachineDesc::single_core(std::move(source));
  machine::CoreDesc& core = desc.cores.front();
  core.has_barrel_shifter = false;
  core.has_multiplier = true;
  if (point.app == App::kMatmul) core.memory_bytes = 256 * 1024;
  if (point.hw != 0) {
    machine::PeripheralDesc peripheral;
    peripheral.core = core.name;
    peripheral.channel = 0;
    if (point.app == App::kCordic) {
      peripheral.type = "cordic";
      peripheral.params["num_pes"] = point.hw;
    } else {
      peripheral.type = "matmul";
      peripheral.params["block_size"] = point.hw;
    }
    desc.peripherals.push_back(std::move(peripheral));
  }
  return desc;
}

Expected<sim::SimSystem> build(machine::MachineDesc desc, bool metrics) {
  sim::SimSystem::Builder builder;
  builder.machine(std::move(desc));
  if (metrics) builder.metrics();
  return builder.build();
}

OpOutput read_output(const sim::SimSystem& system, const Point& point,
                     core::StopReason stop) {
  OpOutput out;
  out.stop = stop;
  out.stats = system.stats();
  const bool cordic = point.app == App::kCordic;
  const u32 count = cordic ? point.size : point.size * point.size;
  out.values.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    out.values.push_back(
        static_cast<i32>(system.word(cordic ? "results" : "mat_c", i)));
  }
  return out;
}

/// Iterations, over all items, that start with Y >= 0.
Cycle nonnegative_steps(const Point& point, const OpData& data) {
  Cycle count = 0;
  for (std::size_t i = 0; i < data.x.size(); ++i) {
    apps::cordic::CordicState state{data.x[i], data.y[i], 0};
    for (unsigned s = 0; s < point.iterations; ++s) {
      if (state.y >= 0) ++count;
      state = apps::cordic::cordic_iterate(state, s, 1);
    }
  }
  return count;
}

/// Every mismatch between an op's output and its references.
std::vector<std::string> check_op(const Point& point, const OpData& data,
                                  const OpOutput& out) {
  std::vector<std::string> errors;
  const std::string where = std::string(point.name) + ": ";
  if (out.stop != core::StopReason::kHalted) {
    errors.push_back(where + "stopped with " +
                     core::stop_reason_name(out.stop) + ", not halted");
  }
  const Cycle cycles =
      point.cycles + (point.per_step == 0
                          ? 0
                          : point.per_step * nonnegative_steps(point, data));
  if (out.stats.cycles != cycles) {
    errors.push_back(where + "simulated " + std::to_string(out.stats.cycles) +
                     " cycles, recorded " + std::to_string(cycles));
  }
  std::vector<i32> expected;
  if (point.app == App::kCordic) {
    apps::cordic::CordicRunConfig config;
    config.num_pes = point.hw;
    config.iterations = point.iterations;
    expected = apps::cordic::cordic_expected(config, data.x, data.y);
  } else {
    expected = apps::matmul::multiply_reference(data.a, data.b).data;
  }
  if (out.values.size() != expected.size()) {
    errors.push_back(where + "read " + std::to_string(out.values.size()) +
                     " outputs, expected " + std::to_string(expected.size()));
  } else {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (out.values[i] != expected[i]) {
        errors.push_back(where + "output " + std::to_string(i) + " is " +
                         std::to_string(out.values[i]) + ", reference " +
                         std::to_string(expected[i]));
        break;
      }
    }
  }
  return errors;
}

/// Samples of one design point.
struct PointSamples {
  std::vector<double> op_ms;
  std::vector<double> cycles;
  std::vector<double> run_s;    ///< inside SimSystem::run
  std::vector<double> build_s;  ///< inside Builder::build
};

/// End-to-end figures of one phase.
struct PhaseStats {
  u64 ops = 0;
  u64 passes = 0;
  std::map<std::string, PointSamples> points;
};

/// Exact per-op counters and isolated-layer probes of the traced phase.
struct LayerTotals {
  u64 ops = 0;
  core::CoSimStats sums;
  iss::DbtStats dbt;
  double run_ns = 0.0;
  double stepped_step_ns = 0.0;  ///< sum of stepped cycles x step ns
  double stepped_blocks = 0.0;   ///< sum of stepped cycles x block count
  std::vector<double> residual_ms;
  std::vector<double> image_kb;
  double replay_plain_s = 0.0;
  double replay_metrics_s = 0.0;
  u64 replay_dbt_instructions = 0;  ///< metrics-on replays
  u64 replay_instructions = 0;
};

/// Replay one program with and without metrics. The metrics-on replay
/// also checks that the snapshot counted every instruction.
void replay_obs(const Point& point, const std::string& source, u64 op,
                Tracer& tracer, LayerTotals& layers, Failures& failures) {
  for (const bool metrics : {false, true}) {
    Expected<sim::SimSystem> built = build(make_desc(point, source), metrics);
    if (!built) {
      failures.fail(op, std::string(point.name) + ": replay build: " +
                            built.error());
      return;
    }
    sim::SimSystem system = std::move(built).value();
    const i64 start = now_ns();
    {
      Scope span(tracer, metrics ? "obs.replay_metrics" : "obs.replay_plain",
                 op);
      (void)system.run();
    }
    const double seconds = static_cast<double>(now_ns() - start) / 1e9;
    if (!metrics) {
      layers.replay_plain_s += seconds;
      continue;
    }
    layers.replay_metrics_s += seconds;
    obs::MetricsSnapshot snapshot;
    {
      Scope span(tracer, "obs.snapshot", op);
      snapshot = system.metrics_snapshot();
    }
    const core::CoSimStats stats = system.stats();
    const u64 counted =
        snapshot.counter("cpu.retired") + snapshot.counter("cpu.halts");
    if (counted != stats.instructions) {
      failures.fail(op, std::string(point.name) +
                            ": metrics cpu.retired + cpu.halts " +
                            std::to_string(counted) + " != instructions " +
                            std::to_string(stats.instructions));
    }
    layers.replay_dbt_instructions += system.dbt_stats().dbt_instructions;
    layers.replay_instructions += stats.instructions;
  }
}

/// Isolated-layer probes on the op's finished system (traced phase).
void probe_layers(sim::SimSystem& system, const OpOutput& out, double run_ms,
                  u64 op, Tracer& tracer, LayerTotals& layers,
                  Failures& failures) {
  std::vector<unsigned char> image;
  {
    Scope span(tracer, "ckpt.snapshot", op);
    image = system.snapshot();
  }
  layers.image_kb.push_back(static_cast<double>(image.size()) / 1024.0);
  {
    Scope span(tracer, "ckpt.restore", op);
    if (Status restored = system.restore_image(image); !restored.ok) {
      failures.fail(op, "restore_image: " + restored.message);
    }
  }
  double step_ns = 0.0;
  if (sysgen::Model* model = system.hardware(); model != nullptr) {
    const i64 start = now_ns();
    {
      Scope span(tracer, "sysgen.step", op);
      for (int i = 0; i < kStepProbe; ++i) model->step();
    }
    step_ns = static_cast<double>(now_ns() - start) / kStepProbe;
    layers.stepped_step_ns +=
        static_cast<double>(out.stats.hw_cycles_stepped) * step_ns;
    layers.stepped_blocks += static_cast<double>(out.stats.hw_cycles_stepped) *
                             static_cast<double>(model->block_count());
  }
  layers.residual_ms.push_back(
      run_ms - static_cast<double>(out.stats.hw_cycles_stepped) * step_ns / 1e6);
}

/// One op: generate, assemble+build, run, read back, check.
void run_op(const Workload& workload, const Point& point, u64 seed, u64 op,
            Tracer& tracer, PhaseStats& phase, Failures& failures,
            LayerTotals* layers) {
  failures.attempt();
  const i64 op_start = now_ns();
  Scope op_span(tracer, "op", op);
  const OpData data = make_data(point, derive_seed(seed, op));
  std::string source = make_source(point, data);
  if (layers != nullptr) {
    Scope span(tracer, "asm.assemble", op);
    if (Expected<assembler::Program> program = assembler::assemble(source);
        !program) {
      failures.fail(op, std::string(point.name) + ": " + program.error());
    }
  }

  const i64 build_start = now_ns();
  Expected<sim::SimSystem> built = [&] {
    Scope span(tracer, "sim.build", op);
    return build(make_desc(point, source), false);
  }();
  const i64 build_end = now_ns();
  if (!built) {
    failures.fail(op, std::string(point.name) + ": build: " + built.error());
    return;
  }
  sim::SimSystem system = std::move(built).value();

  const i64 run_start = now_ns();
  core::StopReason stop = core::StopReason::kCycleLimit;
  {
    Scope span(tracer, "sim.run", op);
    stop = system.run();
  }
  const i64 run_end = now_ns();

  const OpOutput out = read_output(system, point, stop);
  {
    Scope span(tracer, "sim.verify", op);
    for (const std::string& error : check_op(point, data, out)) {
      failures.fail(op, error);
    }
  }
  const i64 op_end = now_ns();

  ++phase.ops;
  PointSamples& samples = phase.points[point.name];
  samples.op_ms.push_back(static_cast<double>(op_end - op_start) / 1e6);
  samples.cycles.push_back(static_cast<double>(out.stats.cycles));
  samples.run_s.push_back(static_cast<double>(run_end - run_start) / 1e9);
  samples.build_s.push_back(static_cast<double>(build_end - build_start) / 1e9);

  if (layers == nullptr) return;
  ++layers->ops;
  layers->sums.cycles += out.stats.cycles;
  layers->sums.instructions += out.stats.instructions;
  layers->sums.fsl_stall_cycles += out.stats.fsl_stall_cycles;
  layers->sums.hw_cycles_stepped += out.stats.hw_cycles_stepped;
  layers->sums.hw_cycles_skipped += out.stats.hw_cycles_skipped;
  layers->sums.bridge.words_to_hw += out.stats.bridge.words_to_hw;
  layers->sums.bridge.words_from_hw += out.stats.bridge.words_from_hw;
  const iss::DbtStats dbt = system.dbt_stats();
  layers->dbt.blocks_translated += dbt.blocks_translated;
  layers->dbt.block_dispatches += dbt.block_dispatches;
  layers->dbt.dbt_instructions += dbt.dbt_instructions;
  layers->run_ns += static_cast<double>(run_end - run_start);
  probe_layers(system, out, static_cast<double>(run_end - run_start) / 1e6, op,
               tracer, *layers, failures);
}

/// One unmeasured warm-up pass (caches, lazy set-up), then whole passes
/// over the workload's points, each in a seeded order, until `seconds`
/// have passed and at least `min_ops` ops have run.
PhaseStats run_phase(const Workload& workload, const Options& options,
                     double seconds, u64 min_ops, u64 op_base, Tracer& tracer,
                     Failures& failures, LayerTotals* layers) {
  std::vector<const Point*> order;
  for (const Point& point : workload.points) order.push_back(&point);
  std::map<std::string, bool> replayed;
  u64 op = op_base;
  const auto run_pass = [&](u64 pass, Tracer& pass_tracer, PhaseStats& into,
                            LayerTotals* totals) {
    Rng rng(derive_seed(options.seed, (op_base << 20) + pass));
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (const Point* point : order) {
      run_op(workload, *point, options.seed, op, pass_tracer, into, failures,
             totals);
      if (totals != nullptr && !replayed[point->name]) {
        replayed[point->name] = true;
        const OpData data = make_data(*point, derive_seed(options.seed, op));
        replay_obs(*point, make_source(*point, data), op, pass_tracer, *totals,
                   failures);
      }
      ++op;
    }
    ++into.passes;
  };

  Tracer off(false);
  PhaseStats warmup;
  run_pass(0, off, warmup, nullptr);
  PhaseStats phase;
  const i64 start = now_ns();
  for (u64 pass = 1;; ++pass) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (pass > 1 && elapsed >= seconds && phase.ops >= min_ops) break;
    run_pass(pass, tracer, phase, layers);
  }
  return phase;
}

// Every op of a design point does the same work, so its host time varies
// only with the load other machines put on a shared host, which comes and
// goes within a second. The end-to-end figures therefore take each
// point's fastest op: the time the op takes when nothing contends with it
// (see README.md, Noise).

/// Simulated MHz of a pass at the fastest run of every point: the
/// points' cycles over the sum of their fastest SimSystem::run times.
double mhz(const PhaseStats& phase) {
  double cycles = 0.0;
  double seconds = 0.0;
  for (const auto& [name, samples] : phase.points) {
    cycles += fastest(samples.cycles);
    seconds += fastest(samples.run_s);
  }
  return seconds > 0.0 ? cycles / seconds / 1e6 : 0.0;
}

/// Build time of a pass: every point's fastest build, summed.
double setup_seconds(const PhaseStats& phase) {
  double seconds = 0.0;
  for (const auto& [name, samples] : phase.points) {
    seconds += fastest(samples.build_s);
  }
  return seconds;
}

/// The typical op: the mean over points of each point's fastest op.
double best_op_ms(const PhaseStats& phase) {
  double sum = 0.0;
  for (const auto& [name, samples] : phase.points) sum += fastest(samples.op_ms);
  return sum / static_cast<double>(std::max<std::size_t>(phase.points.size(), 1));
}

/// Op times with the design point divided out. Raw op times cluster by
/// point, and with whole passes a quantile can fall exactly on the gap
/// between two clusters. So each op's time is scaled by the typical op
/// time (the mean over points of their trimmed means) over its own
/// point's trimmed mean; the result is in ms of a typical op.
std::vector<double> normalized_op_ms(const PhaseStats& phase) {
  double typical = 0.0;
  for (const auto& [name, samples] : phase.points) {
    typical += trimmed_mean(samples.op_ms);
  }
  typical /= static_cast<double>(std::max<std::size_t>(phase.points.size(), 1));
  std::vector<double> out;
  for (const auto& [name, samples] : phase.points) {
    const double scale = typical / trimmed_mean(samples.op_ms);
    for (const double ms : samples.op_ms) out.push_back(ms * scale);
  }
  return out;
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

RunResult run_batch(const Options& options, Tracer& tracer) {
  apps::register_machine_peripherals();
  const Workload& workload = *find_workload(options.workload);
  Failures failures;
  RunResult result;
  Tracer untraced(false);

  if (!options.trace) {
    const PhaseStats phase = run_phase(workload, options, options.seconds, 100,
                                       0, untraced, failures, nullptr);
    const std::vector<double> op_ms = normalized_op_ms(phase);
    result.metrics = {
        {"sim_mhz", mhz(phase), "MHz"},
        {"op_ms.best", best_op_ms(phase), "ms"},
        {"setup_s", setup_seconds(phase), "s"},
        {"peak_rss_mb",
         static_cast<double>(proc_status(0, "VmHWM")) / 1024.0, "MB"},
    };
    char line[256];
    std::snprintf(line, sizeof line,
                  "ops %llu in %llu passes of %zu points; op_ms p50 %.4f "
                  "p90 %.4f (design point divided out)",
                  static_cast<unsigned long long>(phase.ops),
                  static_cast<unsigned long long>(phase.passes),
                  workload.points.size(), quantile(op_ms, 0.5),
                  quantile(op_ms, 0.9));
    result.lines.push_back(line);
  } else {
    // Untraced first half, traced second half: their sim_mhz ratio is the
    // tracing overhead of this workload.
    const PhaseStats plain = run_phase(workload, options, options.seconds / 2,
                                       0, 0, untraced, failures, nullptr);
    LayerTotals layers;
    const PhaseStats traced =
        run_phase(workload, options, options.seconds / 2, 0, plain.ops + 1,
                  tracer, failures, &layers);
    const double ops = static_cast<double>(std::max<u64>(layers.ops, 1));
    const core::CoSimStats& s = layers.sums;
    const auto per_op = [&](u64 value) {
      return static_cast<double>(value) / ops;
    };
    const double stepped = static_cast<double>(s.hw_cycles_stepped);
    const double hw_cycles = stepped + static_cast<double>(s.hw_cycles_skipped);
    const double overhead = mhz(traced) > 0.0 ? mhz(plain) / mhz(traced) : 0.0;
    result.metrics = {
        {"asm.assemble_ms", median(tracer.durations_ms("asm.assemble")), "ms"},
        {"sim.build_ms", median(tracer.durations_ms("sim.build")), "ms"},
        {"sim.run_ms", median(tracer.durations_ms("sim.run")), "ms"},
        {"sim.verify_ms", median(tracer.durations_ms("sim.verify")), "ms"},
        {"sysgen.step_ns", stepped > 0 ? layers.stepped_step_ns / stepped : 0.0,
         "ns"},
        {"sysgen.blocks", stepped > 0 ? layers.stepped_blocks / stepped : 0.0,
         "count"},
        {"sysgen.cycles_stepped", per_op(s.hw_cycles_stepped), "cycles"},
        {"sysgen.cycles_skipped", per_op(s.hw_cycles_skipped), "cycles"},
        {"sysgen.skip_ratio",
         hw_cycles > 0 ? static_cast<double>(s.hw_cycles_skipped) / hw_cycles
                       : 0.0,
         "ratio"},
        {"sysgen.share",
         layers.run_ns > 0 ? layers.stepped_step_ns / layers.run_ns : 0.0,
         "ratio"},
        {"core.residual_ms", median(layers.residual_ms), "ms"},
        {"fsl.words", per_op(s.bridge.words_to_hw + s.bridge.words_from_hw),
         "count"},
        {"fsl.stall_cycles", per_op(s.fsl_stall_cycles), "cycles"},
        {"fsl.stall_ratio",
         s.cycles > 0 ? static_cast<double>(s.fsl_stall_cycles) /
                            static_cast<double>(s.cycles)
                      : 0.0,
         "ratio"},
        {"iss.instructions", per_op(s.instructions), "count"},
        {"iss.ns_per_cycle",
         s.cycles > 0 ? layers.run_ns / static_cast<double>(s.cycles) : 0.0,
         "ns"},
        {"iss.dbt_coverage",
         s.instructions > 0 ? static_cast<double>(layers.dbt.dbt_instructions) /
                                  static_cast<double>(s.instructions)
                            : 0.0,
         "ratio"},
        {"iss.blocks_translated", per_op(layers.dbt.blocks_translated),
         "count"},
        {"iss.block_dispatches", per_op(layers.dbt.block_dispatches), "count"},
        {"obs.overhead_ratio",
         layers.replay_plain_s > 0
             ? layers.replay_metrics_s / layers.replay_plain_s
             : 0.0,
         "ratio"},
        {"obs.snapshot_ms", median(tracer.durations_ms("obs.snapshot")), "ms"},
        {"obs.dbt_coverage",
         layers.replay_instructions > 0
             ? static_cast<double>(layers.replay_dbt_instructions) /
                   static_cast<double>(layers.replay_instructions)
             : 0.0,
         "ratio"},
        {"ckpt.snapshot_ms", median(tracer.durations_ms("ckpt.snapshot")),
         "ms"},
        {"ckpt.restore_ms", median(tracer.durations_ms("ckpt.restore")), "ms"},
        {"ckpt.image_kb", median(layers.image_kb), "KiB"},
        {"trace.overhead_ratio", overhead, "ratio"},
    };
    char line[256];
    std::snprintf(line, sizeof line,
                  "tracing overhead: %s traced sim_mhz %.4f vs untraced %.4f "
                  "(ratio %.4f)",
                  workload.name, mhz(traced), mhz(plain), overhead);
    result.lines.push_back(line);
  }
  result.attempted = failures.attempted();
  result.failed = failures.failed();
  return result;
}

int self_test() {
  apps::register_machine_peripherals();
  int bad = 0;
  const auto expect = [&bad](bool ok, const char* what) {
    std::printf("self-test: %-52s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++bad;
  };
  for (const Point& point : {dse_points()[2], dse_points()[9]}) {
    const OpData data = make_data(point, 12345);
    Expected<sim::SimSystem> built =
        build(make_desc(point, make_source(point, data)), false);
    if (!built) {
      std::printf("self-test: build failed: %s\n", built.error().c_str());
      return 1;
    }
    sim::SimSystem system = std::move(built).value();
    const OpOutput out = read_output(system, point, system.run());
    expect(check_op(point, data, out).empty(),
           (std::string(point.name) + ": true output passes").c_str());

    OpOutput flipped = out;
    flipped.values[out.values.size() / 2] ^= 1 << 7;
    expect(!check_op(point, data, flipped).empty(),
           (std::string(point.name) + ": one flipped output bit fails").c_str());

    OpOutput late = out;
    late.stats.cycles += 1;
    expect(!check_op(point, data, late).empty(),
           (std::string(point.name) + ": a cycle count off by one fails")
               .c_str());

    Failures failures;
    failures.attempt();
    for (const std::string& error : check_op(point, data, flipped)) {
      failures.fail(0, error);
    }
    expect(failures.attempted() == 1 && failures.failed() == 1,
           (std::string(point.name) + ": the corrupted op counts as failed")
               .c_str());
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
