// Figure 5: time performance of the CORDIC processor for division —
// application execution time (microseconds at the 50 MHz system clock)
// versus the number of PEs P, for 24 and 32 iterations. P = 0 denotes
// the pure software implementation, as in the paper.
//
// The 18 design points run as one parallel sim::Sweep over the
// SimSystem facade: every point is an independent simulator, so the
// design-space exploration parallelizes perfectly and the per-point
// cycle counts are bit-identical to a serial run. The host times in
// BENCH_fig5.json come from a serial pass after the sweep (the fastest
// of three runs of each point alone), not from the sweep, whose points
// share the host's cores and would time the contention.
//
// Reproduced shape: execution time drops steeply from P = 0 to small P
// and then shows diminishing returns (the pass count ceil(iters/P)
// dominates); the paper's headline is a 5.6x improvement at P = 4 with
// 24 iterations.
//
// For each hardware point it also prints what the sysgen kernel ran per
// pass (sysgen::KernelStats): ops (each segment's closing kEnd included)
// and segments, the measure that tells dispatch cost from op cost.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) {
  using namespace mbcosim;
  using namespace mbcosim::bench;

  const std::string json_path =
      take_json_path_arg(argc, argv, "BENCH_fig5.json");

  print_header(
      "Figure 5: CORDIC division execution time (usec) vs P\n"
      "  (P = 0 is the pure software implementation; 100 items)");

  const CordicWorkload w24 = CordicWorkload::standard(100, 24);
  const CordicWorkload w32 = CordicWorkload::standard(100, 32);
  const unsigned kPes[] = {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u};

  // Two points (24- and 32-iteration workloads) per pipeline depth.
  sim::Sweep sweep;
  std::vector<sim::Sweep::Factory> factories;
  std::vector<sysgen::KernelStats> kernels(2 * std::size(kPes));
  const sim::Sweep::Collector read_kernel =
      [&kernels](sim::SimSystem& system, sim::SweepPointResult& result) {
        if (const sysgen::Model* model = system.hardware()) {
          kernels[result.index] = model->kernel_stats();
        }
      };
  for (unsigned p : kPes) {
    for (const CordicWorkload* w : {&w24, &w32}) {
      apps::cordic::CordicRunConfig config;
      config.num_pes = p;
      config.iterations = w->iterations;
      config.items = static_cast<unsigned>(w->x.size());
      factories.push_back([config, w] {
        return apps::cordic::make_cordic_system(config, w->x, w->y);
      });
      sweep.add("P=" + std::to_string(p) + "/" +
                    std::to_string(w->iterations) + "it",
                factories.back(), read_kernel);
    }
  }

  const unsigned threads =
      std::max(4u, std::thread::hardware_concurrency());
  Stopwatch sweep_watch;
  const auto results = sweep.run({.threads = threads});
  const double sweep_seconds = sweep_watch.elapsed_seconds();

  // Serial timing pass: each point alone on the host, fastest of three.
  constexpr int kTimedRuns = 3;
  std::vector<double> point_seconds(factories.size(), 0.0);
  for (std::size_t i = 0; i < factories.size(); ++i) {
    auto built = factories[i]();
    if (!built.ok()) {
      std::printf("%s FAILED: %s\n", results[i].label.c_str(),
                  built.error().c_str());
      return 1;
    }
    sim::SimSystem system = std::move(built).value();
    for (int run = 0; run < kTimedRuns; ++run) {
      system.reset();
      system.run();
      if (system.stats().cycles != results[i].stats.cycles) {
        std::printf("%s: serial run took %llu cycles, sweep %llu\n",
                    results[i].label.c_str(),
                    static_cast<unsigned long long>(system.stats().cycles),
                    static_cast<unsigned long long>(results[i].stats.cycles));
        return 1;
      }
      const double seconds = system.run_wall_seconds();
      if (run == 0 || seconds < point_seconds[i]) point_seconds[i] = seconds;
    }
  }

  JsonReport report("fig5_cordic_perf");
  std::printf("%4s %18s %18s %14s %14s\n", "P", "24 iters [usec]",
              "32 iters [usec]", "speedup(24)", "speedup(32)");
  print_rule();
  double sw24 = 0;
  double sw32 = 0;
  for (std::size_t i = 0; i < std::size(kPes); ++i) {
    const auto& r24 = results[2 * i];
    const auto& r32 = results[2 * i + 1];
    if (!r24.ok || !r32.ok) {
      std::printf("%4u  FAILED: %s\n", kPes[i],
                  (!r24.ok ? r24 : r32).error.c_str());
      return 1;
    }
    if (kPes[i] == 0) {
      sw24 = r24.usec();
      sw32 = r32.usec();
    }
    std::printf("%4u %18.1f %18.1f %13.2fx %13.2fx\n", kPes[i], r24.usec(),
                r32.usec(), sw24 / r24.usec(), sw32 / r32.usec());
    report.add(r24.label, r24.stats.cycles, point_seconds[2 * i]);
    report.add(r32.label, r32.stats.cycles, point_seconds[2 * i + 1]);
  }
  report.write(json_path);

  print_rule();
  std::printf("%4s %18s %18s %18s %18s\n", "P", "ops/pass (24)",
              "ops/pass (32)", "segments/pass (24)", "segments/pass (32)");
  for (std::size_t i = 0; i < std::size(kPes); ++i) {
    if (kPes[i] == 0) continue;
    auto per_pass = [](const sysgen::KernelStats& k, u64 count) {
      return k.passes == 0 ? 0.0
                           : static_cast<double>(count) /
                                 static_cast<double>(k.passes);
    };
    const sysgen::KernelStats& k24 = kernels[2 * i];
    const sysgen::KernelStats& k32 = kernels[2 * i + 1];
    std::printf("%4u %18.1f %18.1f %18.2f %18.2f\n", kPes[i],
                per_pass(k24, k24.ops), per_pass(k32, k32.ops),
                per_pass(k24, k24.segments), per_pass(k32, k32.segments));
  }
  print_rule();
  std::printf(
      "Paper shape: monotone decrease with P, diminishing returns; P=4 at\n"
      "24 iterations is 5.6x faster than pure software (ours printed in\n"
      "the speedup(24) column). Effective iterations for P that does not\n"
      "divide the count are rounded up to the next multiple of P\n"
      "(extra CORDIC iterations only refine the quotient).\n"
      "Sweep: %zu points on %u worker threads in %.2f s wall-clock;\n"
      "BENCH_fig5.json times each point alone (fastest of %d runs).\n",
      results.size(), threads, sweep_seconds, kTimedRuns);
  return 0;
}
