// Durable session journals (DESIGN.md §14). A JournalStore manages one
// --state-dir directory; each hosted session owns a SessionJournal —
// a per-session subdirectory holding everything a restarted daemon
// needs to rebuild it:
//
//   <state-dir>/manifest.json            versioned store manifest
//   <state-dir>/session-<id>/
//     request.json                       the create request, resolved
//     events.jsonl                       lifecycle transitions, appended
//     ckpt-<seq>.ckpt                    sealed checkpoint records
//     trace-<core>.jsonl                 per-core trace (when tracing)
//
// Durability rules: request.json, manifest.json and every checkpoint
// record are written to a ".tmp" sibling and atomically renamed into
// place, so a crash mid-write leaves either the old file or no file —
// never a half-written one that parses. Checkpoint records reuse the
// sealed ckpt image container (FNV-1a checksummed header), so a torn
// write of the payload itself is detected on read and skipped with a
// logged reason; recovery falls back to the next-newest record.
// events.jsonl is append-only; a torn tail line simply fails to parse
// and is ignored.
//
// Error channel: every failure is a Status/Expected whose message
// starts with a stable "[srv-journal-*]" (or wrapped "[ckpt-*]") code
// from errors.hpp — callers and tests dispatch on the code.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace mbcosim::server {

/// Journal store format, recorded in manifest.json. Bump on any layout
/// change; open() rejects other versions with [srv-journal-version].
inline constexpr long long kJournalFormatVersion = 1;

/// One durable checkpoint of a hosted session: the simulated machine
/// image, the exact metrics-registry state, and how many bytes of each
/// per-core trace file were written up to this point (so recovery can
/// truncate a post-checkpoint tail and keep the trace byte-identical).
struct JournalCheckpoint {
  Cycle cycle = 0;
  std::vector<u64> trace_offsets;
  std::vector<unsigned char> metrics;  ///< SimSystem::metrics_state blob
  std::vector<unsigned char> image;    ///< SimSystem::snapshot image
};

/// The per-session journal. Thread-safe: the worker thread writes
/// checkpoints while HTTP threads record lifecycle events.
class SessionJournal {
 public:
  SessionJournal(u64 id, std::string dir)
      : id_(id), dir_(std::move(dir)) {}

  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  [[nodiscard]] u64 id() const noexcept { return id_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Append one lifecycle record to events.jsonl:
  ///   {"cycles":N,"event":"running","stop":"..."}
  [[nodiscard]] Status record_event(const std::string& event, Cycle cycles,
                                    const std::string& stop);

  /// Durably write one checkpoint record (tmp + rename, sealed payload)
  /// and prune records older than the previous one — the newest record
  /// plus one fallback survive.
  [[nodiscard]] Status write_checkpoint(const JournalCheckpoint& record);

  /// Newest record that unseals and parses. Damaged or torn records are
  /// skipped, each with a "[srv-journal-corrupt] ..." line appended to
  /// `log`; nullopt when no valid record exists.
  [[nodiscard]] std::optional<JournalCheckpoint> newest_valid_checkpoint(
      std::vector<std::string>* log);

  /// Path of core `index`'s journaled trace file.
  [[nodiscard]] std::string trace_path(std::size_t core_index) const;

  /// Cut every trace file back to the given offsets (missing entries
  /// mean 0), discarding events simulated after the checkpoint being
  /// restored — they will be re-simulated, and re-written, identically.
  [[nodiscard]] Status truncate_traces(const std::vector<u64>& offsets,
                                       std::size_t core_count);

  /// What this journal has written since it was opened: bytes, and
  /// writes, each an event append or a checkpoint record renamed into
  /// place. Every write is flushed to the OS; none is fsync'ed.
  struct WriteCounts {
    u64 bytes = 0;
    u64 writes = 0;
  };
  [[nodiscard]] WriteCounts write_counts();

 private:
  [[nodiscard]] std::string checkpoint_path(u64 seq) const;

  const u64 id_;
  const std::string dir_;
  std::mutex mutex_;
  u64 next_seq_ = 0;  ///< 0 = derive from existing records on first use
  WriteCounts written_;
};

/// The --state-dir directory: creates/validates the manifest, hands out
/// per-session journals, scans for recoverable sessions.
class JournalStore {
 public:
  /// Open (or initialise) a state directory. [srv-journal-io] when it
  /// cannot be created or written, [srv-journal-version] when its
  /// manifest was written by an incompatible format,
  /// [srv-journal-corrupt] when the manifest does not parse.
  [[nodiscard]] static Expected<std::unique_ptr<JournalStore>> open(
      std::string state_dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Create session-<id>/ and durably record the (resolved) create
  /// request; returns the session's journal.
  [[nodiscard]] Expected<std::unique_ptr<SessionJournal>> create_session(
      u64 id, const std::string& request_json);

  /// One recoverable-session candidate found by scan().
  struct ScanEntry {
    u64 id = 0;
    std::string request_json;  ///< contents of request.json
    std::string last_event;    ///< last parseable events.jsonl event, "" if none
    std::unique_ptr<SessionJournal> journal;
  };

  /// Enumerate session directories, id order. Entries whose request
  /// cannot be read are skipped with a "[srv-journal-*]" line in `log`.
  [[nodiscard]] std::vector<ScanEntry> scan(std::vector<std::string>* log);

  /// Remove session-<id>/ recursively (client DELETE, or cleanup of a
  /// terminal session at recovery).
  [[nodiscard]] Status remove_session(u64 id);

 private:
  explicit JournalStore(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
};

}  // namespace mbcosim::server
