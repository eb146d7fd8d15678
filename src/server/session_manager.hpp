// The session pool: monotonic ids, admission control, lifetime. The
// manager owns every live Session via shared_ptr (HTTP threads hold a
// second reference for the duration of one request, so a concurrent
// DELETE cannot pull a session out from under them).
//
// Admission control is a worker budget, not a session count alone: a
// 3-core machine with 3 engine workers weighs 4, a single-core session
// weighs 1. A create that would overflow either limit is rejected with
// a structured "[srv-busy]" error — the client can retry, nothing
// queues.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "server/journal.hpp"
#include "server/session.hpp"

namespace mbcosim::server {

class SessionManager {
 public:
  struct Limits {
    std::size_t max_sessions = 8;
    /// Total admission weight (Session::cost) across live sessions;
    /// 0 = derive from hardware_concurrency.
    unsigned worker_budget = 0;
  };

  explicit SessionManager(Limits limits) : limits_(limits) {
    if (limits_.worker_budget == 0) {
      limits_.worker_budget =
          std::max(4u, 2 * std::thread::hardware_concurrency());
    }
  }

  /// Attach a journal store: every session created from here on is
  /// durable. Call before serving (not thread-safe against create).
  void attach_journal(JournalStore* store) noexcept { store_ = store; }

  /// Admit and build a new session. "[srv-busy]" when over budget,
  /// "[srv-bad-machine]" when the build fails, "[srv-journal-io]" when
  /// its journal cannot be created.
  [[nodiscard]] Expected<std::shared_ptr<Session>> create(
      SessionConfig config);

  /// "[srv-unknown-session]" when absent (never created, or killed).
  [[nodiscard]] Expected<std::shared_ptr<Session>> find(u64 id);

  /// Remove and kill, deleting any journal dir (the session is gone for
  /// good, recovery must not resurrect it). Removal under the manager
  /// lock serializes kills: the second DELETE of an id reports
  /// "[srv-unknown-session]".
  [[nodiscard]] std::string kill(u64 id);

  /// Live sessions, id order.
  [[nodiscard]] std::vector<std::shared_ptr<Session>> list();

  /// Kill every session (daemon shutdown). Journal dirs survive — an
  /// unjournalled shutdown looks like a crash to the next --recover.
  void kill_all();

  /// What recover() did: sessions readmitted, plus one log line per
  /// skipped/cleaned entry (corrupt tails, terminal sessions, budget).
  struct RecoveryReport {
    std::size_t recovered = 0;
    std::vector<std::string> log;
  };

  /// Rebuild sessions from the attached journal store: replay each
  /// journaled create request, restore the newest valid checkpoint
  /// (corrupt/truncated tails skipped with a logged reason), truncate
  /// journaled traces back to it and readmit under the worker budget.
  /// Terminal sessions (killed by deadline) are cleaned up. Call before
  /// serving.
  [[nodiscard]] RecoveryReport recover();

  /// Graceful drain: stop every session at its next quantum boundary
  /// (bounded by `timeout_ms`), let the workers checkpoint their way
  /// out, publish terminal draining records and kill the pool. Journal
  /// dirs survive for --recover.
  void drain(u64 timeout_ms);

  [[nodiscard]] const Limits& limits() const noexcept { return limits_; }

 private:
  /// Idempotent budget release (deadline expiry and DELETE can race).
  void release_budget(u64 id);

  Limits limits_;
  JournalStore* store_ = nullptr;
  std::mutex mutex_;
  std::map<u64, std::shared_ptr<Session>> sessions_;
  /// Admission weight charged per live session id; absent once
  /// released (expired sessions stay visible but free their budget).
  std::map<u64, unsigned> charges_;
  u64 next_id_ = 1;
  unsigned used_budget_ = 0;
};

}  // namespace mbcosim::server
