// ManyCoreEngine: deterministic parallel co-simulation of N soft
// processors, each with its own hardware model and FSL hub, cross-wired
// by quantum-synchronized FSL links. This generalizes CoSimEngine from
// the paper's single MicroBlaze (Figure 3) to a farm of them — the
// multi-processor variant the paper sketches for larger System
// Generator designs — while keeping the property that makes the rest of
// the repo trustworthy: the simulation result is a pure function of the
// machine description, independent of host thread count or scheduling.
// sim::SimSystem runs every machine through it; the paper's one
// MicroBlaze is the one-core case, which runs no rounds at all: one
// CoSimEngine::run call. Deadlock has one predicate, deadlocked(), over
// the stall streaks the cores' engines keep across calls.
//
// Execution model (conservative quantum synchronization), two or more
// cores:
//   - Time advances in rounds whose ends lie on one grid, the multiples
//     of `quantum` from reset; the end of the open round is engine state.
//     In each round every unfinished core runs alone — its processor,
//     its peripherals, its private FIFOs — up to the round end. Cores
//     share no mutable state during a round.
//   - At the round barrier the orchestrator thread moves words across
//     the declared cross-core links in declaration order, bounded by
//     destination FIFO space, and takes the deadlock verdict. A word
//     written in round R is thus visible to its reader in round R+1 —
//     the quantum is the link latency.
//   - A call that stops mid-round holds no barrier; the next one
//     finishes the round. So a run cut anywhere (run() chunks, hosted
//     quanta, checkpoints, debugger steps) equals the uncut run.
//   - A core blocked on an empty (or full) cross-linked FIFO burns
//     stall cycles to the round end exactly like a single-core
//     processor blocked on slow hardware, so cycle accounting never
//     depends on what the other cores happened to be doing.
//
// Host threads (round workers): with W effective workers the engine
// keeps W-1 helper threads, created by the first parallel run() and
// joined by the destructor; between rounds and between run() calls
// they spin briefly on an atomic round epoch, then park on it. The
// orchestrator (the thread calling run()) advances its own share of the
// cores, so W threads advance cores in each round. Cores are placed on
// threads longest-processing-time first by the host time each took in
// the previous rounds (node_host_ns), re-placed only at run() entry and
// every kPlacementRounds rounds, so a core keeps its thread's cache.
//
// Determinism: rounds are sequential; within a round each core touches
// only core-local state; barrier transfers run on one thread in fixed
// order. Worker count and placement change which host thread executes
// a core's quantum — never the order of operations any simulated
// component observes. The machine determinism test asserts
// byte-identical stats and traces at 1, 2 and N workers (tests/machine).
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/cosim_engine.hpp"
#include "fsl/fsl_channel.hpp"
#include "fsl/fsl_hub.hpp"
#include "iss/processor.hpp"

namespace mbcosim::ckpt {
class Writer;
class Reader;
}  // namespace mbcosim::ckpt

namespace mbcosim::core {

/// How a machine-level run ended. `core` identifies the culprit for
/// kIllegal / kDeadlock, and for kHalted the last core to halt (ties at
/// the same cycle go to the highest index) — all indices into add_core
/// order. It is kNoCore for kCycleLimit and for a kHalted stop with no
/// observable halt (an empty machine).
struct MachineStop {
  /// Sentinel: no core is responsible for (or known for) this stop.
  static constexpr std::size_t kNoCore = static_cast<std::size_t>(-1);

  StopReason reason = StopReason::kCycleLimit;
  std::size_t core = kNoCore;
};

class ManyCoreEngine {
 public:
  explicit ManyCoreEngine(Cycle quantum = 64) : quantum_(quantum) {}
  /// Joins the round workers (they are parked: no run is in flight).
  ~ManyCoreEngine();
  // Helper threads and the nodes they advance point into the engine.
  ManyCoreEngine(const ManyCoreEngine&) = delete;
  ManyCoreEngine& operator=(const ManyCoreEngine&) = delete;

  /// Register a core. The processor/engine/hub are owned by the caller
  /// (sim::SimSystem keeps them in per-core state blocks) and must
  /// outlive the engine. Cores run in add order; `name` is used in
  /// diagnostics. A lone core stops its own run at the deadlock
  /// threshold; once a second core is added no core stops alone (see
  /// deadlocked()).
  std::size_t add_core(std::string name, iss::Processor& cpu,
                       CoSimEngine& engine, fsl::FslHub& hub);

  /// Cross-wire `from`'s put-channel to `to`'s get-channel. Channel
  /// validity and conflicts are checked by machine::MachineDesc; this
  /// rejects only out-of-range core indices / channel ids.
  Status link(std::size_t from_core, unsigned from_channel,
              std::size_t to_core, unsigned to_channel);

  /// Host threads that advance cores in each round, the calling thread
  /// included: 0 = one per host hardware thread, 1 = fully serial on the
  /// caller, W > 1 = the caller plus W-1 helper threads (capped at the
  /// core count). Helpers persist across run() calls and park between
  /// them; cores are placed on threads by measured host cost. Purely a
  /// host-performance knob: results are identical for every value.
  void set_workers(unsigned workers) noexcept { workers_ = workers; }

  /// The deadlock threshold, in consecutive blocked cycles.
  void set_deadlock_threshold(Cycle cycles) noexcept;

  /// The one deadlock rule, as the last barrier judged it (a lone core,
  /// having no links, is judged now): every live core's stall streak
  /// has reached the threshold and the barrier moved no link word. A
  /// call that ends mid-round reports false. run() stops on it,
  /// rsp::CoSimTarget reads it after each step.
  [[nodiscard]] bool deadlocked() const noexcept {
    return nodes_.size() == 1 ? all_blocked() : deadlocked_;
  }
  /// The first live core declares the deadlock (its diagnosis, event
  /// and `engine.deadlocks`) through CoSimEngine::declare_deadlock().
  MachineStop declare_deadlock();

  /// Run the machine until every core halts, any core traps, the
  /// machine deadlocks, or `max_cycles` is reached (per-core clock). A
  /// one-core machine runs no rounds: one CoSimEngine::run(max_cycles)
  /// call, and every stop names core 0.
  MachineStop run(Cycle max_cycles);

  /// One debugger step of core `index`: step its processor once and
  /// bring every other live core to its clock, holding the barrier of
  /// each round end on the way (first the open round's, if the core
  /// stands past it), so steps and run() calls mix exactly. Stepping a
  /// halted core reports kHalted, and a step whose first barrier finds
  /// a deadlock reports kFslStall, both without stepping.
  iss::StepResult debug_step(std::size_t index);

  [[nodiscard]] std::size_t core_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const std::string& core_name(std::size_t index) const {
    return nodes_[index].name;
  }
  /// The lock-step engine of core `index` (a debugger's view of it).
  [[nodiscard]] CoSimEngine& core_engine(std::size_t index) const {
    return *nodes_[index].engine;
  }
  /// Machine totals: cycle count is the maximum per-core clock (the
  /// cores share one system clock); the other fields are sums.
  [[nodiscard]] CoSimStats aggregate_stats() const;
  /// Words moved across every cross-core link so far.
  [[nodiscard]] u64 link_words() const noexcept { return link_words_; }
  /// Host steady-clock nanoseconds core `index` has spent in run()
  /// rounds since the engine was built — the cost placement balances.
  /// Host-side only: never part of stats, metrics or checkpoints. Read
  /// it between run() calls.
  [[nodiscard]] u64 node_host_ns(std::size_t index) const {
    return nodes_[index].host_ns;
  }

  /// The culprit core's diagnosis of the most recent deadlock.
  [[nodiscard]] std::optional<DeadlockDiagnosis> deadlock_diagnosis() const;

  [[nodiscard]] Cycle quantum() const noexcept { return quantum_; }

  /// Forget run progress — finished flags, link word counters, halt
  /// attribution, the open round. Call after resetting every core's
  /// engine (the caller owns them, so the reset loop lives there, in
  /// sim::SimSystem).
  void reset_progress() noexcept {
    for (Node& node : nodes_) {
      node.finished = false;
      node.last = StopReason::kCycleLimit;
    }
    link_words_ = 0;
    round_end_ = quantum_;
    deadlocked_ = false;
    last_halted_core_ = MachineStop::kNoCore;
    last_halt_cycle_ = 0;
  }

  /// Checkpoint the engine's own run progress — per-core finished flags
  /// and last stop reasons, the link word counter, the open round and
  /// its verdict, halt attribution. Core components (processors,
  /// engines, hubs) are serialized by their owner, and restored first.
  void save_state(ckpt::Writer& writer) const;
  [[nodiscard]] bool load_state(ckpt::Reader& reader);

 private:
  struct Node {
    std::string name;
    iss::Processor* cpu = nullptr;
    CoSimEngine* engine = nullptr;
    fsl::FslHub* hub = nullptr;
    bool finished = false;       ///< halted (terminal; ignored in rounds)
    StopReason last = StopReason::kCycleLimit;
    u64 host_ns = 0;    ///< lifetime host time in rounds
    u64 window_ns = 0;  ///< host time since the last placement
  };

  struct CrossLink {
    std::size_t from_core = 0;
    std::size_t to_core = 0;
    fsl::FslChannel* source = nullptr;  ///< writer's to_hw FIFO
    fsl::FslChannel* sink = nullptr;    ///< reader's from_hw FIFO
  };

  /// Drain every link's source FIFO into its sink FIFO, bounded by
  /// space; returns the words moved. Runs on one thread only.
  u64 transfer_links();
  /// Index of the first core that has not halted, or nodes_.size().
  [[nodiscard]] std::size_t first_live() const noexcept;
  /// Whether every unfinished core has reached the round end.
  [[nodiscard]] bool round_complete() const noexcept;
  /// Transfer the links, take the deadlock verdict, open the next round.
  void barrier();
  /// Some core is live and every live core's streak reached the threshold.
  [[nodiscard]] bool all_blocked() const noexcept;
  /// run_round() to `cycle`, holding the barrier of each round end.
  void catch_up(Cycle cycle);
  /// Rounds between re-placements within one run() call.
  static constexpr unsigned kPlacementRounds = 128;

  /// Keep `count` helper threads (joining and respawning on a change).
  /// Helper `thread` (1-based; 0 is the orchestrator) waits for each
  /// round epoch, advances its share and counts itself done.
  void ensure_helpers(std::size_t count);
  /// Wake every helper with stopping_ set and join it.
  void stop_helpers();
  /// Assign the unfinished cores to shares_ (one per thread, the
  /// orchestrator's first), longest measured window cost first onto the
  /// least-loaded thread; then start a new measuring window.
  void place();
  /// Advance the unfinished cores of `thread`'s share to round_target_,
  /// timing each.
  void advance_share(std::size_t thread);
  /// Advance every unfinished core to `target`: wake the helpers that
  /// hold a share, run the orchestrator's share, wait for the helpers,
  /// note the halts. Returns the index of a trapped core, or
  /// nodes_.size().
  std::size_t run_round(Cycle target);
  /// Record that core `index` halted at its current clock. Runs on the
  /// orchestrator thread only (run_round diffs finished flags after the
  /// helpers are done); keeps the latest halt, ties to the highest index.
  void note_halt(std::size_t index);

  std::vector<Node> nodes_;
  std::vector<CrossLink> links_;
  Cycle quantum_ = 64;
  unsigned workers_ = 0;
  Cycle deadlock_threshold_ = kDefaultDeadlockThreshold;
  u64 link_words_ = 0;
  Cycle round_end_ = quantum_;  ///< end of the open round, on the grid
  bool deadlocked_ = false;     ///< verdict of the last barrier
  std::size_t last_halted_core_ = MachineStop::kNoCore;
  Cycle last_halt_cycle_ = 0;

  // Round workers. The orchestrator writes shares_ and round_target_
  // only while every helper waits for the next epoch; the epoch's
  // release/acquire publishes them, and done_'s publishes the cores'
  // state back.
  std::vector<std::vector<std::size_t>> shares_;  ///< [thread] -> cores
  std::vector<char> was_finished_;  ///< run_round's halt diff
  bool helpers_have_work_ = false;  ///< some helper share is non-empty
  Cycle round_target_ = 0;
  std::atomic<u32> epoch_{0};
  std::atomic<u32> done_{0};  ///< helpers finished with this epoch
  bool stopping_ = false;     ///< published by the final epoch bump
  std::vector<std::jthread> helpers_;
};

}  // namespace mbcosim::core
