// Parallel design-space-exploration sweep engine. A Sweep is an ordered
// list of configuration points; each point carries a factory that builds
// one fresh, independent SimSystem. run() executes every point — on a
// fixed pool of worker threads when asked — and collects the statistics
// plus the rapid resource/energy estimates into an order-stable result
// table. This is what makes the paper's headline use case (sweeping
// CORDIC pipeline depth, Fig. 5, and matmul block size, Fig. 7) fast:
// the points of a sweep are embarrassingly parallel because every
// SimSystem is self-contained.
//
// Failure isolation: a point whose factory fails (Expected error or
// exception) or whose simulation deadlocks reports its error /
// StopReason in its own result row and never poisons the other points.
//
// Determinism: the simulators are single-threaded and seed-determined,
// so the per-point results are bit-identical no matter how many worker
// threads the sweep uses or how the points interleave. The contract the
// caller must keep is the one SimSystem documents: factories must not
// share mutable state between points (capture inputs by value or as
// read-only data).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/resources.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "core/cosim_engine.hpp"
#include "energy/energy_model.hpp"
#include "obs/metrics.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::sim {

/// One row of the sweep result table.
struct SweepPointResult {
  std::size_t index = 0;  ///< position in the sweep (results are ordered)
  std::string label;
  /// True when the point built and ran to a software halt. False rows
  /// carry the diagnosis: a non-empty `error` means the factory or the
  /// wiring failed (and `stop` is meaningless); an empty `error` means
  /// the simulation ran but stopped abnormally (`stop` says how, e.g.
  /// StopReason::kDeadlock for a deadlocked configuration).
  bool ok = false;
  std::string error;
  core::StopReason stop = core::StopReason::kCycleLimit;
  core::CoSimStats stats;
  ResourceVec estimated_resources;
  ResourceVec implemented_resources;
  energy::EnergyReport energy;
  /// Observability counters/histograms of the point's run; empty unless
  /// the factory built the system with SimSystem::Builder::metrics().
  obs::MetricsSnapshot metrics;
  double sim_wall_seconds = 0.0;  ///< host time inside the run() loop
  double wall_seconds = 0.0;      ///< host time for the whole point

  /// Simulated execution time at the paper's 50 MHz system clock.
  [[nodiscard]] double usec() const { return cycles_to_usec(stats.cycles); }
};

struct SweepOptions {
  unsigned threads = 0;  ///< worker threads; 0 = hardware concurrency
  Cycle max_cycles = Cycle{1} << 36;
  bool estimates = true; ///< collect resource/energy estimates per point
};

class Sweep {
 public:
  /// Builds the point's SimSystem; runs on a worker thread.
  using Factory = std::function<Expected<SimSystem>()>;
  /// Optional hook run after every simulation that built and ran —
  /// whatever its StopReason — while the point's SimSystem is still
  /// alive. Use it to pull application results out of the simulated
  /// memory, to veto `ok` on a wrong answer, or to inspect a deadlocked
  /// or trapped point (check `result.ok` / `result.stop` first when only
  /// clean halts matter). It does not run when the factory itself fails.
  using Collector = std::function<void(SimSystem&, SweepPointResult&)>;

  /// Append a configuration point; returns its index.
  std::size_t add(std::string label, Factory factory, Collector collect = {});

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

  /// Run every point and return one result row per point, in add()
  /// order regardless of thread interleaving.
  [[nodiscard]] std::vector<SweepPointResult> run(
      const SweepOptions& options = {}) const;

 private:
  struct Point {
    std::string label;
    Factory factory;
    Collector collect;
  };

  void run_point(const Point& point, const SweepOptions& options,
                 SweepPointResult& result) const;

  std::vector<Point> points_;
};

}  // namespace mbcosim::sim
