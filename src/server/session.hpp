// One hosted co-simulation: a sim::SimSystem plus the worker thread
// that drives it and the telemetry hub that observes it. Sessions obey
// a small state machine (DESIGN.md §13):
//
//   idle --run_async--> running --(stop|pause|kill)--> idle
//   idle --start_debug--> debug --(detach|kill)------> idle
//   any  --kill--> killed (terminal)
//
// Threading contract: SimSystem is never touched from two threads at
// once. While state is `running` or `debug` the worker thread owns the
// system exclusively; HTTP threads may only touch it under `mutex_`
// with state `idle`. The worker publishes its results and flips the
// state back to idle under the same mutex, so the handover is a proper
// happens-before edge.
//
// Determinism: control points (pause, kill, metrics records, and the
// wall-clock and cycle budgets) land on control-quantum boundaries of
// run(), so the run is chunked — simulated results are identical to an
// unchunked run (the deadlock blocked-streak counters restart per
// chunk, same caveat as DESIGN.md §11). Telemetry is sink-only, so
// subscribing, lagging or disconnecting clients cannot perturb results.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "machine/machine_desc.hpp"
#include "server/journal.hpp"
#include "server/stream_hub.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::server {

struct SessionConfig {
  machine::MachineDesc desc;
  unsigned workers = 0;   ///< engine worker threads (multi-core machines)
  bool metrics = true;    ///< aggregate counters/histograms
  bool trace = false;     ///< stream every trace event (precise fallback)
  /// Cycles per run() chunk between control points — how often pause
  /// and kill are honoured and metrics records are streamed.
  Cycle control_quantum = 100'000;
  /// Per-subscriber telemetry queue bound (lines) before drop-oldest.
  std::size_t stream_queue = 4096;
  /// Wall-clock budget of one run, in milliseconds; 0 = none. Enforced
  /// at control-quantum boundaries: an overrunning session is killed
  /// with a "[srv-deadline]" terminal state and its budget released.
  u64 deadline_ms = 0;
  /// Lifetime simulated-cycle budget; 0 = none. Same enforcement.
  Cycle max_cycles = 0;
  /// Journal checkpoint interval in cycles (journaled sessions only);
  /// 0 = checkpoint only when a run stops. The worker also checkpoints
  /// on every run exit, so the journal always holds the stopped state.
  Cycle ckpt_every = 1'000'000;
};

/// Canonical JSON form of a create request (sorted keys, machine
/// description inlined) — what the journal records, and what recovery
/// replays through session_config_from_json below. Round-trip exact.
[[nodiscard]] std::string session_config_to_json(const SessionConfig& config);

/// Parse the session fields of a create-request object around an
/// already-resolved machine description. Shared by the HTTP create
/// endpoint and journal recovery, so both accept exactly one dialect.
/// Failure messages carry stable "[srv-bad-request]"/json codes.
[[nodiscard]] Expected<SessionConfig> session_config_from_json(
    const common::json::Object& body, machine::MachineDesc desc,
    Cycle default_control_quantum);

enum class SessionState : u8 { kIdle, kRunning, kDebug, kKilled };

[[nodiscard]] constexpr const char* to_string(SessionState state) noexcept {
  switch (state) {
    case SessionState::kIdle: return "idle";
    case SessionState::kRunning: return "running";
    case SessionState::kDebug: return "debug";
    case SessionState::kKilled: return "killed";
  }
  return "?";
}

/// The GET /sessions/N/stats page: sim::stats_text, the renderer
/// `monitor stats` uses too, so the two read identically by
/// construction.
using sim::stats_text;

/// Admission weight of a session: 1 control thread, plus the engine
/// workers of a multi-core machine. Known before the system is built.
[[nodiscard]] unsigned session_cost(const SessionConfig& config);

class Session {
 public:
  /// Build the simulated system and wrap it in an idle session. Build
  /// failures come back as "[srv-bad-machine] <builder error>". With a
  /// journal the session is durable: lifecycle events and periodic
  /// checkpoints are persisted, and traced sessions write per-core
  /// journal trace files (byte-identical to a batch --trace run).
  [[nodiscard]] static Expected<std::shared_ptr<Session>> create(
      u64 id, SessionConfig config,
      std::unique_ptr<SessionJournal> journal = nullptr);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  /// The manager kills a session before dropping it; the destructor
  /// only has to reap the (finished) worker thread.
  ~Session();

  [[nodiscard]] u64 id() const noexcept { return id_; }
  [[nodiscard]] SessionState state() const;
  /// Admission weight, session_cost() of the session's config.
  [[nodiscard]] unsigned cost() const { return session_cost(config_); }

  // -- operations. String-returning ops yield "" on success or a
  // -- "[srv-*]" message; see errors.hpp.

  /// Start (or resume) running toward the absolute cycle target
  /// `max_cycles` on the worker thread; returns immediately.
  [[nodiscard]] std::string run_async(Cycle max_cycles);
  /// Stop a running session at the next control-quantum boundary and
  /// wait until it is idle.
  [[nodiscard]] std::string pause();
  /// Terminal: interrupt any run or debug session, join the worker,
  /// close the telemetry stream. Idempotent.
  [[nodiscard]] std::string kill();
  /// Snapshot the (idle, has-run) session into a checkpoint image.
  [[nodiscard]] Expected<std::vector<unsigned char>> checkpoint();
  /// Restore a checkpoint image into the (idle) session.
  [[nodiscard]] std::string restore_image(
      const std::vector<unsigned char>& image);
  /// Open an RSP debug port (0 = ephemeral) and serve one client on the
  /// worker thread; returns the bound port. While a client is attached
  /// the session is in `debug` and extra RSP clients get "E.srv-busy".
  [[nodiscard]] Expected<u16> start_debug(u16 port);

  /// Restore the newest valid journal checkpoint into a freshly built
  /// session (recovery path; call before any run). "" on success.
  [[nodiscard]] std::string adopt_recovery(const JournalCheckpoint& record);

  /// Called (off this session's mutex) when the deadline path kills
  /// the session from its own worker thread, so the manager can
  /// release its admission budget while keeping it visible in the pool.
  void set_on_expire(std::function<void(u64)> on_expire) {
    on_expire_ = std::move(on_expire);
  }

  /// Graceful-drain step: publish a terminal {"stream":"draining"}
  /// record, stop any run at the next quantum boundary (waiting no
  /// longer than `deadline` for it), journal the drain and kill the
  /// session. The worker's exit checkpoint makes the stop durable.
  void drain(std::chrono::steady_clock::time_point deadline);

  /// Subscribe to the session's telemetry stream.
  [[nodiscard]] std::shared_ptr<StreamSubscription> subscribe() {
    return hub_.subscribe();
  }

  // -- observation (idle sessions only where noted) --

  /// One-object JSON summary: id, state, cores, cycles, last stop.
  [[nodiscard]] std::string info_json() const;
  /// stats_text() of the system; "[srv-running]" unless idle.
  [[nodiscard]] Expected<std::string> stats_page();
  /// metrics_snapshot().to_string(); "[srv-running]" unless idle.
  [[nodiscard]] Expected<std::string> metrics_page();

 private:
  Session(u64 id, SessionConfig config)
      : id_(id), config_(std::move(config)), hub_(config_.stream_queue) {}

  /// Chunked run loop (worker thread); `deadline` is the wall-clock end
  /// of this run, checked at every control-quantum boundary.
  void worker_run(
      Cycle max_cycles,
      std::optional<std::chrono::steady_clock::time_point> deadline);
  /// Accept-and-serve RSP loop (worker thread).
  void worker_debug(rsp::TcpListener listener);
  /// Worker thread, owning system_: persist a checkpoint record (cycle,
  /// trace offsets, metrics state, machine image) to the journal.
  void journal_checkpoint();
  /// Worker thread: terminal [srv-deadline] teardown — the session
  /// kills itself, releases its budget via on_expire_ and stays in the
  /// pool as killed so clients can read the structured stop state.
  void expire_with(const std::string& stop);
  /// Reap a finished worker thread; call with mutex_ held, state idle.
  void reap_worker();
  /// Mutex held: "" when the session is idle and not being torn down,
  /// otherwise the structured busy error for its effective state. Gates
  /// every operation that would touch system_ or spawn a worker.
  [[nodiscard]] std::string gate_idle() const;
  void publish_state(const char* state, Cycle cycles,
                     const std::string& stop);

  const u64 id_;
  SessionConfig config_;
  StreamHub hub_;
  std::unique_ptr<SessionJournal> journal_;
  std::function<void(u64)> on_expire_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Journaled per-core trace streams; declared before system_ so the
  /// JsonlSinks inside its trace buses are destroyed first.
  std::vector<std::unique_ptr<std::ofstream>> trace_files_;
  std::optional<sim::SimSystem> system_;
  SessionState state_ = SessionState::kIdle;
  std::thread worker_;
  std::atomic<bool> pause_requested_{false};
  std::atomic<bool> kill_requested_{false};
  /// Set (under mutex_) by the first kill() before it releases the lock
  /// to join the worker. Guards the window between that release and the
  /// final state_ = kKilled: run_async/start_debug must not spawn a new
  /// worker there, and only the flag-setting kill() owns the handle.
  bool killing_ = false;
  bool has_run_ = false;
  Cycle cached_cycles_ = 0;       ///< last published cycle count
  std::string cached_stop_;       ///< last stop reason ("" before any run)
  std::optional<Cycle> recovered_from_;  ///< journal recovery provenance
  /// Worker-thread only: cycle of the last journaled checkpoint.
  Cycle last_journal_cycle_ = 0;
  bool journal_has_checkpoint_ = false;
};

}  // namespace mbcosim::server
