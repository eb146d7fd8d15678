// perfbench — the mbcosim benchmark binary. perfbench/run.py builds it
// and runs:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir DIR]
//   perfbench --self-test
//
// Workloads: dse_paper, sw_batch (batch.cpp) and farm_hosted
// (hosted.cpp). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the metrics are the
// end-to-end set with --trace 0 and the per-layer set with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <span>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Declared {
  const char* name;
  const char* unit;
};

/// Mirrors BENCHMARK.json: every run prints exactly these, in this order.
constexpr Declared kEndToEnd[] = {
    {"sim_mhz", "MHz"},
    {"op_ms.best", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics; a layer the workload does not exercise reads 0.
constexpr Declared kPerLayer[] = {
    {"asm.assemble_ms", "ms"},
    {"sim.build_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.verify_ms", "ms"},
    {"sysgen.step_ns", "ns"},
    {"sysgen.blocks", "count"},
    {"sysgen.cycles_stepped", "cycles"},
    {"sysgen.cycles_skipped", "cycles"},
    {"sysgen.skip_ratio", "ratio"},
    {"sysgen.share", "ratio"},
    {"core.residual_ms", "ms"},
    {"fsl.words", "count"},
    {"fsl.stall_cycles", "cycles"},
    {"fsl.stall_ratio", "ratio"},
    {"iss.instructions", "count"},
    {"iss.ns_per_cycle", "ns"},
    {"iss.dbt_coverage", "ratio"},
    {"iss.blocks_translated", "count"},
    {"iss.block_dispatches", "count"},
    {"obs.overhead_ratio", "ratio"},
    {"obs.snapshot_ms", "ms"},
    {"obs.dbt_coverage", "ratio"},
    {"manycore.rounds", "count"},
    {"manycore.round_us", "us"},
    {"manycore.link_words", "count"},
    {"ckpt.snapshot_ms", "ms"},
    {"ckpt.restore_ms", "ms"},
    {"ckpt.image_kb", "KiB"},
    {"server.create_ms", "ms"},
    {"server.run_ack_ms", "ms"},
    {"server.poll_ms", "ms"},
    {"server.metrics_ms", "ms"},
    {"server.stats_ms", "ms"},
    {"server.checkpoint_ms", "ms"},
    {"server.http_ms.p50", "ms"},
    {"server.http_ms.p99", "ms"},
    {"server.overhead_ratio", "ratio"},
    {"server.journal_kb", "KiB"},
    {"server.daemon_threads", "count"},
    {"server.daemon_vmsize_mb", "MB"},
    {"server.requests", "count"},
    {"trace.overhead_ratio", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dse_paper|sw_batch|farm_hosted "
               "--seed N --seconds S --trace 0|1\n"
               "                 [--workdir DIR]\n"
               "       perfbench --self-test\n");
  return 2;
}

std::string number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", std::isfinite(value) ? value : 0.0);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return usage();
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else {
      return usage();
    }
  }
  const bool hosted = options.workload == "farm_hosted";
  if (!have_seconds || (!hosted && !is_batch_workload(options.workload))) {
    return usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);

  Tracer tracer(options.trace);
  const RunResult result =
      hosted ? run_hosted(options, tracer) : run_batch(options, tracer);
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s attempted no op\n",
                 options.workload.c_str());
    return 1;
  }

  std::printf("perfbench %s seed %llu seconds %g trace %d build %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, PERFBENCH_BUILD_TYPE);
  for (const std::string& line : result.lines) std::printf("%s\n", line.c_str());

  std::map<std::string, double> values;
  for (const Metric& metric : result.metrics) values[metric.name] = metric.value;
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const std::span<const Declared> declared =
      options.trace ? std::span<const Declared>(kPerLayer)
                    : std::span<const Declared>(kEndToEnd);
  for (const auto& [name, unit] : declared) {
    const double value = values.count(name) != 0 ? values[name] : 0.0;
    std::printf("  %-26s %16.6f %s\n", name, value, unit);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  json += "}}";
  if (options.trace) {
    const std::string path = options.workdir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".jsonl";
    if (tracer.write_jsonl(path)) {
      std::printf("spans written to %s\n", path.c_str());
    }
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
