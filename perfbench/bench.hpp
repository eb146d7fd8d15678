// Shared pieces of the mbcosim benchmark: command-line options, the
// in-memory span recorder of the traced run, sample statistics, failure
// accounting and the result every workload hands back to main().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using mbcosim::Cycle;
using mbcosim::i32;
using mbcosim::i64;
using mbcosim::u32;
using mbcosim::u64;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (state dirs, span dumps).
  std::string workdir = ".bench_build/perfbench-work";
};

/// Model::step calls per isolated sysgen probe.
inline constexpr int kStepProbe = 1000;

/// Monotonic host time in nanoseconds.
[[nodiscard]] i64 now_ns();

/// splitmix64 of (seed, stream): independent per-op input seeds.
[[nodiscard]] u64 derive_seed(u64 seed, u64 stream);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);
/// Mean without the lowest and highest 5% of `values`; 0 when empty.
[[nodiscard]] double trimmed_mean(std::vector<double> values);
/// The smallest of `values`; 0 when empty.
[[nodiscard]] double fastest(const std::vector<double>& values);

/// Spans of the traced run, kept in memory and written out at the end:
/// name, start, end, the enclosing span and the op they belong to. With
/// tracing off, open() returns -1 and nothing is stored.
class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< string literal
    i64 start_ns = 0;
    i64 end_ns = 0;
    i32 parent = -1;
    u64 op = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] i32 open(const char* name, u64 op);
  void close(i32 index);

  /// Durations in ms of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// One JSON object per span; false when the file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<i32> open_;  ///< stack of open span indices
};

/// RAII span: opened on construction, closed on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, u64 op)
      : tracer_(tracer), index_(tracer.open(name, op)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  i32 index_;
};

/// Attempted/failed ops; every failure message goes to stderr (the
/// first few hundred of them — the count is always exact).
class Failures {
 public:
  void attempt() { ++attempted_; }
  /// Mark the current op failed, once per op however many checks fail.
  void fail(u64 op, const std::string& message);
  [[nodiscard]] u64 attempted() const noexcept { return attempted_; }
  [[nodiscard]] u64 failed() const noexcept { return failed_; }

 private:
  u64 attempted_ = 0;
  u64 failed_ = 0;
  u64 last_failed_op_ = ~u64{0};
  u64 printed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> lines;
};

/// The number in field `key` of /proc/<pid>/status (pid 0 = this
/// process): kB for "VmHWM"/"VmSize", a count for "Threads"; -1 if absent.
[[nodiscard]] long long proc_status(long long pid, const std::string& key);

// Workloads (batch.cpp, hosted.cpp).
[[nodiscard]] bool is_batch_workload(const std::string& name);
[[nodiscard]] RunResult run_batch(const Options& options, Tracer& tracer);
[[nodiscard]] RunResult run_hosted(const Options& options, Tracer& tracer);
/// The benchmark's own check: a corrupted output must count as a failure.
[[nodiscard]] int self_test();

}  // namespace perfbench
