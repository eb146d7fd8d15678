// MetricsRegistry: the aggregating half of the observability layer. It
// keeps named counters and histograms — FSL occupancy distribution per
// channel, stall-run lengths, OPB wait states — so a design-space sweep
// can report *why* a configuration point is slow (e.g. "FIFO pegged at
// depth, long stall runs") without storing a trace.
//
// The registry is not a TraceSink. Each instrumented component holds a
// pointer to its own typed counter block (CpuCounters, FslCounters,
// OpbCounters, EngineCounters, FaultCounters; null = metrics off) and
// bumps plain integers at the points where it already counts, so no
// TraceEvent is built and no execution tier is given up for metrics.
// The string-keyed page (MetricsSnapshot) is assembled only at snapshot
// time: a counter appears once the component has touched it. Snapshots
// are plain value types that can be copied into sweep result rows and
// compared across points.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "common/types.hpp"

namespace mbcosim::obs {

/// Log2-bucketed histogram: bucket i counts values whose bit width is i
/// (value 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...). Coarse,
/// but allocation-light and enough to tell "mostly-empty FIFO" from
/// "pegged at depth" or "1-cycle stalls" from "thousand-cycle stalls".
class Histogram {
 public:
  void record(u64 value) noexcept;

  [[nodiscard]] u64 count() const noexcept { return count_; }
  [[nodiscard]] u64 sum() const noexcept { return sum_; }
  [[nodiscard]] u64 min() const noexcept { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] u64 max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  /// Bucket counts, index = bit width of the value; trailing zero
  /// buckets trimmed.
  [[nodiscard]] const std::vector<u64>& buckets() const noexcept {
    return buckets_;
  }

  friend bool operator==(const Histogram&, const Histogram&) = default;

  /// Exact state round-trip for session journals: a restored histogram
  /// is field-for-field identical (including the untouched-min sentinel),
  /// so recovered metrics render byte-identically.
  void save_state(ckpt::Writer& writer) const;
  void load_state(ckpt::Reader& reader);

 private:
  std::vector<u64> buckets_;
  u64 count_ = 0;
  u64 sum_ = 0;
  u64 min_ = ~u64{0};
  u64 max_ = 0;
};

/// One processor's instruction counters (iss::Processor). A stall run is
/// a streak of consecutive blocked cycles; the first non-stall
/// instruction closes it into the `stall_runs` histogram. An open run
/// outlives run() calls and checkpoints; snapshot() counts it in flight.
struct CpuCounters {
  u64 retired = 0;  ///< instructions completed, the halting one excluded
  u64 halts = 0;
  u64 illegal = 0;
  Cycle stall_cycles = 0;
  Cycle stall_run = 0;  ///< length of the open stall run (0 = none)
  Histogram stall_runs;

  void close_stall_run() noexcept {
    if (stall_run != 0) {
      stall_runs.record(stall_run);
      stall_run = 0;
    }
  }
};

/// One FSL FIFO's handshakes (fsl::FslChannel); occupancy is sampled
/// after every push and pop.
struct FslCounters {
  u64 push = 0;
  u64 pop = 0;
  u64 refused = 0;
  Histogram occupancy;
};

/// Completed OPB transactions (bus::OpbBus).
struct OpbCounters {
  u64 reads = 0;
  u64 writes = 0;
  Cycle wait_cycles = 0;
  Histogram wait;
};

/// Lock-step engine events (core::CoSimEngine).
struct EngineCounters {
  Cycle quiesce_skipped = 0;  ///< hardware cycles fast-forwarded
  u64 deadlocks = 0;
};

/// Fault-injection events (src/fault): injections fired at a trigger
/// point, and experiment outcomes by class name. Both are once-per-run
/// events, so the outcome map is never on a hot path.
struct FaultCounters {
  u64 injects = 0;
  std::map<std::string, u64> outcomes;
};

/// Copyable point-in-time view of a MetricsRegistry.
struct MetricsSnapshot {
  std::map<std::string, u64> counters;
  std::map<std::string, Histogram> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && histograms.empty();
  }
  [[nodiscard]] u64 counter(const std::string& name) const noexcept {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  /// Human-readable multi-line report (counters then histograms).
  [[nodiscard]] std::string to_string() const;
};

/// The counter blocks of one core. Components are wired to the blocks
/// once, at build time; afterwards only the owning component (and, for a
/// cross-core link's channels, the machine engine between rounds) writes
/// them, so a multi-core machine needs no locking here.
class MetricsRegistry {
 public:
  CpuCounters cpu;
  OpbCounters opb;
  EngineCounters engine;
  FaultCounters fault;

  /// Counter block of the FSL channel named `channel`, created on first
  /// use. The reference stays valid for the registry's lifetime.
  [[nodiscard]] FslCounters& fsl(const std::string& channel);

  /// The string-keyed page; an in-flight stall run is accounted without
  /// closing it.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Exact registry state (the page without the in-flight stall run,
  /// then that run's length) for session journals — a restored registry
  /// continues aggregating exactly where the saved one stopped. The
  /// layout is the page's counters and histograms by name, so blobs
  /// journaled by earlier releases restore unchanged. load_state returns
  /// false on a name no counter block of this registry can hold.
  void save_state(ckpt::Writer& writer) const;
  [[nodiscard]] bool load_state(ckpt::Reader& reader);

 private:
  [[nodiscard]] MetricsSnapshot page() const;
  /// The counter / histogram a page key names, or nullptr.
  [[nodiscard]] u64* counter_named(std::string_view name);
  [[nodiscard]] Histogram* histogram_named(std::string_view name);

  std::map<std::string, FslCounters> fsl_;
};

}  // namespace mbcosim::obs
