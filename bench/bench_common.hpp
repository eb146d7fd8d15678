// Shared helpers for the paper-reproduction benches: fixed-width table
// printing, the standard workloads of Section IV, and the machine-
// readable JSON result emitter used to track perf trajectory across PRs.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/cordic/cordic_app.hpp"
#include "apps/cordic/cordic_sw.hpp"
#include "apps/matmul/matmul_app.hpp"
#include "apps/matmul/matmul_sw.hpp"
#include "asm/assembler.hpp"
#include "common/stopwatch.hpp"
#include "machine/machine_desc.hpp"
#include "rtlmodels/system_rtl.hpp"

namespace mbcosim::bench {

/// Machine-readable bench results: one row per measured workload, written
/// as a stable JSON document so `BENCH_*.json` files can be diffed and
/// plotted across PRs. MHz is derived (simulated cycles per host second
/// / 1e6) — the exact quantity the paper's Table II compares.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void add(std::string workload, Cycle simulated_cycles,
           double wall_seconds) {
    rows_.push_back(
        Row{std::move(workload), simulated_cycles, wall_seconds});
  }

  /// Write the report; returns false (with a message on stderr) when the
  /// file cannot be opened. An empty path disables emission.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open JSON report file %s\n", path.c_str());
      return false;
    }
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
                 bench_name_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      const double mhz = row.wall_seconds > 0.0
                             ? static_cast<double>(row.cycles) /
                                   row.wall_seconds / 1e6
                             : 0.0;
      std::fprintf(out,
                   "    {\"workload\": \"%s\", \"simulated_cycles\": %llu, "
                   "\"wall_seconds\": %.6f, \"mhz\": %.4f}%s\n",
                   row.workload.c_str(),
                   static_cast<unsigned long long>(row.cycles),
                   row.wall_seconds, mhz, i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote JSON results to %s\n", path.c_str());
    return true;
  }

 private:
  struct Row {
    std::string workload;
    Cycle cycles = 0;
    double wall_seconds = 0.0;
  };
  std::string bench_name_;
  std::vector<Row> rows_;
};

/// Consume a `--json FILE` argument from argv (so it can run ahead of
/// google-benchmark's own flag parsing). Returns FILE when given,
/// `fallback` otherwise; `--json none` disables emission (empty path).
inline std::string take_json_path_arg(int& argc, char** argv,
                                      std::string fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      std::string path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return path == "none" ? std::string{} : path;
    }
  }
  return fallback;
}

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_header(const std::string& title) {
  std::printf("\n");
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

/// The paper's standard CORDIC workload scaled up so wall-clock
/// measurements are stable: `items` divisions of the same dataset.
struct CordicWorkload {
  std::vector<i32> x;
  std::vector<i32> y;
  unsigned iterations = 24;

  static CordicWorkload standard(unsigned items, unsigned iterations,
                                 u64 seed = 0x51D) {
    CordicWorkload w;
    auto [x, y] = apps::cordic::make_cordic_dataset(items, seed);
    w.x = std::move(x);
    w.y = std::move(y);
    w.iterations = iterations;
    return w;
  }
};

/// Run the CORDIC design (P = 0 => pure software) on the high-level
/// co-simulation environment, returning the result struct.
inline apps::cordic::CordicRunResult run_cordic_cosim(
    const CordicWorkload& workload, unsigned num_pes) {
  apps::cordic::CordicRunConfig config;
  config.num_pes = num_pes;
  config.iterations = workload.iterations;
  config.items = static_cast<unsigned>(workload.x.size());
  return apps::cordic::run_cordic(config, workload.x, workload.y);
}

/// Run the same CORDIC design on the low-level RTL baseline. Returns the
/// simulated cycles; `wall_seconds` receives the host time.
inline Cycle run_cordic_rtl(const CordicWorkload& workload, unsigned num_pes,
                            double* wall_seconds) {
  isa::CpuConfig cpu_config;
  // Neither the shift-loop software baseline nor the hardware-driver
  // program uses barrel shifts, so the RTL core never instantiates one.
  cpu_config.has_barrel_shifter = false;
  const std::string source =
      num_pes == 0
          ? apps::cordic::pure_software_program(
                workload.x, workload.y, workload.iterations,
                apps::cordic::ShiftStrategy::kShiftLoop)
          : apps::cordic::hw_driver_program(workload.x, workload.y,
                                            workload.iterations, num_pes, 5);
  const auto program = assembler::assemble_or_throw(source);
  rtlmodels::RtlPeripheralConfig peripheral;
  if (num_pes > 0) {
    peripheral.kind = rtlmodels::RtlPeripheralConfig::Kind::kCordic;
    peripheral.parameter = num_pes;
  }
  Stopwatch watch;
  rtlmodels::RtlSystem rtl(program, cpu_config, peripheral);
  const auto reason = rtl.run(1u << 28);
  if (wall_seconds != nullptr) *wall_seconds = watch.elapsed_seconds();
  if (reason != rtlmodels::RtlStopReason::kHalted) {
    std::fprintf(stderr, "RTL CORDIC run did not halt!\n");
  }
  return rtl.cycles();
}

/// Matmul equivalents.
inline apps::matmul::MatmulRunResult run_matmul_cosim(
    const apps::matmul::Matrix& a, const apps::matmul::Matrix& b,
    unsigned block_size) {
  apps::matmul::MatmulRunConfig config;
  config.matrix_size = a.n;
  config.block_size = block_size;
  return apps::matmul::run_matmul(config, a, b);
}

inline Cycle run_matmul_rtl(const apps::matmul::Matrix& a,
                            const apps::matmul::Matrix& b,
                            unsigned block_size, double* wall_seconds) {
  isa::CpuConfig cpu_config;
  cpu_config.has_barrel_shifter = false;
  const std::string source =
      block_size == 0 ? apps::matmul::pure_software_program(a, b)
                      : apps::matmul::hw_driver_program(a, b, block_size);
  const auto program = assembler::assemble_or_throw(source);
  rtlmodels::RtlPeripheralConfig peripheral;
  if (block_size > 0) {
    peripheral.kind = rtlmodels::RtlPeripheralConfig::Kind::kMatmul;
    peripheral.parameter = block_size;
  }
  Stopwatch watch;
  rtlmodels::RtlSystem rtl(program, cpu_config, peripheral, 256 * 1024);
  const auto reason = rtl.run(1u << 28);
  if (wall_seconds != nullptr) *wall_seconds = watch.elapsed_seconds();
  if (reason != rtlmodels::RtlStopReason::kHalted) {
    std::fprintf(stderr, "RTL matmul run did not halt!\n");
  }
  return rtl.cycles();
}

/// `farms` copies of the examples/machines CORDIC farm side by side, each
/// with a round counter wrapped around every core's loop: the feeder
/// streams the 8-pair dataset `rounds` times, the worker runs 2 sets of
/// 4 per round through its 16-PE pipeline, the collector overwrites the
/// same 8-word result buffer each round (~340 cycles per round). One
/// farm keeps the plain names feeder/worker/collector; copy k of several
/// appends k to each name.
inline machine::MachineDesc cordic_farm(unsigned farms, unsigned rounds) {
  const std::string count = std::to_string(rounds);
  machine::MachineDesc desc;
  desc.quantum = 64;
  desc.fifo_depth = 16;

  machine::CoreDesc feeder;
  feeder.name = "feeder";
  feeder.program = R"(
start:
  li r25, )" + count + R"(
round_loop:
  la r21, data_x
  la r22, data_y
  li r29, 32              # 8 items * 4 bytes
  addk r10, r0, r0
item_loop:
  lw r3, r21, r10
  put r3, rfsl1           # X (divisor)
  lw r4, r22, r10
  put r4, rfsl1           # Y (dividend)
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, item_loop
  addik r25, r25, -1
  bnei r25, round_loop
  halt

data_x:                   # divisors, Fix32_24
  .word 0x01000000
  .word 0x02000000
  .word 0x01800000
  .word 0x04000000
  .word 0x01000000
  .word 0x03000000
  .word 0x01400000
  .word 0x02800000
data_y:                   # dividends, Fix32_24
  .word 0x00800000
  .word 0x03000000
  .word 0x00c00000
  .word 0x01000000
  .word 0xff800000
  .word 0x02000000
  .word 0x01000000
  .word 0x00a00000
)";

  machine::CoreDesc worker;
  worker.name = "worker";
  worker.program = R"(
start:
  li r25, )" + count + R"(
round_loop:
  li r20, 2               # sets of 4 items per round
set_loop:
  cput r0, rfsl0          # control word: initial shift amount s0 = 0
  li r5, 4
send_loop:
  get r3, rfsl1           # X from the feeder
  put r3, rfsl0
  get r3, rfsl1           # Y from the feeder
  put r3, rfsl0
  put r0, rfsl0           # Z = 0
  addik r5, r5, -1
  bnei r5, send_loop
  li r5, 4
recv_loop:
  get r3, rfsl0           # X out (discarded)
  get r3, rfsl0           # Y residue (discarded)
  get r3, rfsl0           # Z out = quotient
  put r3, rfsl2           # forward to the collector
  addik r5, r5, -1
  bnei r5, recv_loop
  addik r20, r20, -1
  bnei r20, set_loop
  addik r25, r25, -1
  bnei r25, round_loop
  halt
)";

  machine::CoreDesc collector;
  collector.name = "collector";
  collector.program = R"(
start:
  li r25, )" + count + R"(
round_loop:
  la r28, results
  li r29, 32              # 8 quotients * 4 bytes
  addk r10, r0, r0
store_loop:
  get r3, rfsl1
  sw r3, r28, r10
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, store_loop
  addik r25, r25, -1
  bnei r25, round_loop
  halt

results: .space 32
)";

  for (unsigned farm = 0; farm < farms; ++farm) {
    const std::string suffix = farms == 1 ? "" : std::to_string(farm);
    for (machine::CoreDesc core : {feeder, worker, collector}) {
      core.name += suffix;
      desc.cores.push_back(std::move(core));
    }
    desc.links.push_back({"feeder" + suffix, 1, "worker" + suffix, 1});
    desc.links.push_back({"worker" + suffix, 2, "collector" + suffix, 1});
    machine::PeripheralDesc cordic;
    cordic.core = "worker" + suffix;
    cordic.type = "cordic";
    cordic.channel = 0;
    cordic.params["num_pes"] = 16;
    desc.peripherals.push_back(std::move(cordic));
  }
  return desc;
}

}  // namespace mbcosim::bench
