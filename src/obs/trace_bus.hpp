// TraceBus: the event stream of the observability layer. Producers
// (processor, FSL channels, OPB bus, co-simulation engine) hold a
// non-owning `TraceBus*` that is null by default; when a user attaches
// sinks — JSONL event log, VCD waveform writer, a server stream — the
// bus is wired through and every emit() fans the event out to all of
// them. Metrics are not a sink: they are typed counters the producers
// bump directly (obs/metrics.hpp), so they never enable a bus.
//
// Cost contract (the paper's pitch is visibility *at speed*):
//   - not wired (the default): one predictable null-pointer branch per
//     potential event — nothing is constructed;
//   - wired but no sinks ("compiled in but disabled"): one extra
//     enabled() load; still no TraceEvent is built, because producers
//     guard with `bus != nullptr && bus->enabled()`;
//   - wired with sinks: one TraceEvent aggregate init plus one virtual
//     call per sink per event, and the processor gives up its batched
//     and superblock tiers (every instruction must reach the sinks).
// The disabled-mode overhead is asserted by the trace_overhead guard in
// bench/bench_table2_simspeed.
#pragma once

#include <memory>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "obs/event.hpp"

namespace mbcosim::obs {

/// A consumer of TraceEvents. Sinks are owned by the bus; flush() is
/// called when the simulation run they observe completes (sinks that
/// buffer, like the VCD writer, write their output there).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
  virtual void flush() {}
  /// I/O health of the sink. File-backed sinks latch the first stream
  /// failure (disk full, closed pipe) here instead of silently
  /// truncating their output; in-memory sinks stay ok forever.
  [[nodiscard]] virtual Status status() const { return {}; }
};

class TraceBus {
 public:
  TraceBus() = default;
  TraceBus(const TraceBus&) = delete;
  TraceBus& operator=(const TraceBus&) = delete;

  /// Attach a sink; the bus owns it. Returns a reference for callers
  /// that need to keep talking to the sink.
  TraceSink& add_sink(std::unique_ptr<TraceSink> sink);

  /// True when at least one sink is attached. Producers must check this
  /// (or hold a null bus pointer) before building a TraceEvent.
  [[nodiscard]] bool enabled() const noexcept { return !sinks_.empty(); }

  void emit(const TraceEvent& event) {
    if (origin_ != nullptr && event.origin == nullptr) {
      TraceEvent scoped = event;
      scoped.origin = origin_;
      for (const auto& sink : sinks_) sink->on_event(scoped);
      return;
    }
    for (const auto& sink : sinks_) sink->on_event(event);
  }

  /// Name of the core every event on this bus originates from ("cpu0",
  /// "cpu1", ...), stamped into TraceEvent::origin at emit() time so
  /// multi-core JSONL/VCD output is unambiguous. Null (the default)
  /// leaves events un-scoped — the single-core byte-identical mode. The
  /// pointed-to storage must outlive the bus (SimSystem keeps it in the
  /// per-core state block).
  void set_origin(const char* origin) noexcept { origin_ = origin; }
  [[nodiscard]] const char* origin() const noexcept { return origin_; }

  /// Simulated-time cursor, advanced by whichever component drives the
  /// clock (the processor per step, the engine per hardware cycle), so
  /// producers that do not track time themselves (FSL channels, OPB
  /// bus) can stamp their events.
  void set_time(Cycle time) noexcept { time_ = time; }
  [[nodiscard]] Cycle time() const noexcept { return time_; }

  void flush();

  /// First failure reported by any attached sink (ok when none failed).
  [[nodiscard]] Status status() const {
    for (const auto& sink : sinks_) {
      if (Status s = sink->status(); !s.ok) return s;
    }
    return {};
  }

 private:
  std::vector<std::unique_ptr<TraceSink>> sinks_;
  Cycle time_ = 0;
  const char* origin_ = nullptr;
};

}  // namespace mbcosim::obs
