#include "server/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/json.hpp"
#include "isa/isa.hpp"
#include "obs/jsonl_sink.hpp"

namespace mbcosim::server {

namespace {

std::string busy_message(SessionState state) {
  return std::string("[srv-running] session is ") + to_string(state) +
         "; operation requires an idle session";
}

/// Record a lifecycle event; journal write failures are loud (stderr)
/// but never fail the operation they ride along with.
void journal_event(SessionJournal* journal, u64 id, const char* event,
                   Cycle cycles, const std::string& stop = {}) {
  if (journal == nullptr) return;
  if (Status recorded = journal->record_event(event, cycles, stop);
      !recorded.ok) {
    std::fprintf(stderr, "session %llu: %s\n",
                 static_cast<unsigned long long>(id),
                 recorded.message.c_str());
  }
}

}  // namespace

std::string session_config_to_json(const SessionConfig& config) {
  std::string out = "{\"ckpt_every\":" + std::to_string(config.ckpt_every) +
                    ",\"control_quantum\":" +
                    std::to_string(config.control_quantum) +
                    ",\"deadline_ms\":" + std::to_string(config.deadline_ms) +
                    ",\"machine\":" + config.desc.to_json() +
                    ",\"max_cycles\":" + std::to_string(config.max_cycles) +
                    ",\"metrics\":" + (config.metrics ? "true" : "false") +
                    ",\"stream_queue\":" + std::to_string(config.stream_queue) +
                    ",\"trace\":" + (config.trace ? "true" : "false") +
                    ",\"workers\":" + std::to_string(config.workers) + "}";
  return out;
}

Expected<SessionConfig> session_config_from_json(
    const common::json::Object& body, machine::MachineDesc desc,
    Cycle default_control_quantum) {
  using common::json::get_bool;
  using common::json::get_int;
  using Failure = Expected<SessionConfig>;
  SessionConfig config;
  config.desc = std::move(desc);
  config.control_quantum = default_control_quantum;
  long long workers = 0;
  long long control_quantum = 0;
  long long stream_queue = 0;
  long long deadline_ms = 0;
  long long max_cycles = 0;
  long long ckpt_every = static_cast<long long>(config.ckpt_every);
  std::string err;
  if ((err = get_int(body, "workers", "session", false, workers),
       !err.empty()) ||
      (err = get_bool(body, "metrics", "session", config.metrics),
       !err.empty()) ||
      (err = get_bool(body, "trace", "session", config.trace), !err.empty()) ||
      (err = get_int(body, "control_quantum", "session", false,
                     control_quantum),
       !err.empty()) ||
      (err = get_int(body, "stream_queue", "session", false, stream_queue),
       !err.empty()) ||
      (err = get_int(body, "deadline_ms", "session", false, deadline_ms),
       !err.empty()) ||
      (err = get_int(body, "max_cycles", "session", false, max_cycles),
       !err.empty()) ||
      (err = get_int(body, "ckpt_every", "session", false, ckpt_every),
       !err.empty())) {
    return Failure::failure(err);
  }
  if (workers < 0 || control_quantum < 0 || stream_queue < 0 ||
      deadline_ms < 0 || max_cycles < 0 || ckpt_every < 0) {
    return Failure::failure(
        "[srv-bad-request] workers, control_quantum, stream_queue, "
        "deadline_ms, max_cycles and ckpt_every must be non-negative");
  }
  config.workers = static_cast<unsigned>(workers);
  if (control_quantum > 0) {
    config.control_quantum = static_cast<Cycle>(control_quantum);
  }
  if (stream_queue > 0) {
    config.stream_queue = static_cast<std::size_t>(stream_queue);
  }
  config.deadline_ms = static_cast<u64>(deadline_ms);
  config.max_cycles = static_cast<Cycle>(max_cycles);
  config.ckpt_every = static_cast<Cycle>(ckpt_every);
  return config;
}

unsigned session_cost(const SessionConfig& config) {
  const std::size_t cores = config.desc.cores.size();
  if (cores <= 1) return 1;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return 1 + (config.workers != 0
                  ? config.workers
                  : std::min<unsigned>(hw, static_cast<unsigned>(cores)));
}

Expected<std::shared_ptr<Session>> Session::create(
    u64 id, SessionConfig config, std::unique_ptr<SessionJournal> journal) {
  using Failure = Expected<std::shared_ptr<Session>>;
  sim::SimSystem::Builder builder;
  builder.machine(config.desc).workers(config.workers);
  if (config.metrics) builder.metrics();
  Expected<sim::SimSystem> built = builder.build();
  if (!built) {
    return Failure::failure("[srv-bad-machine] " + built.error());
  }
  std::shared_ptr<Session> session(new Session(id, std::move(config)));
  session->journal_ = std::move(journal);
  session->system_.emplace(std::move(built).value());
  sim::SimSystem& system = *session->system_;
  if (session->config_.trace) {
    // Same rendering as a batch --trace file: streamed event lines are
    // byte-identical to the golden-trace output.
    for (std::size_t i = 0; i < system.core_count(); ++i) {
      system.trace_bus(i).add_sink(std::make_unique<StreamSink>(
          session->hub_,
          [](Addr, Word raw) { return isa::disassemble(raw); }));
    }
    if (session->journal_ != nullptr) {
      // Journaled sessions additionally persist the trace per core,
      // appending across daemon restarts (recovery truncates back to
      // the restored checkpoint first, so the file stays byte-identical
      // to an uninterrupted batch --trace run).
      for (std::size_t i = 0; i < system.core_count(); ++i) {
        const std::string path = session->journal_->trace_path(i);
        auto stream = std::make_unique<std::ofstream>(
            path, std::ios::binary | std::ios::app);
        if (!stream->good()) {
          return Failure::failure("[srv-journal-io] cannot open trace file '" +
                                  path + "'");
        }
        auto sink = std::make_unique<obs::JsonlSink>(*stream);
        sink->set_disassembler(
            [](Addr, Word raw) { return isa::disassemble(raw); });
        system.trace_bus(i).add_sink(std::move(sink));
        session->trace_files_.push_back(std::move(stream));
      }
    }
  }
  journal_event(session->journal_.get(), id, "created", 0);
  return session;
}

Session::~Session() {
  // The manager guarantees kill() ran; this only reaps the thread.
  if (worker_.joinable()) worker_.join();
}

SessionState Session::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

void Session::publish_state(const char* state, Cycle cycles,
                            const std::string& stop) {
  using common::json::Value;
  common::json::Object record;
  record["stream"] = Value{std::string("state")};
  record["state"] = Value{std::string(state)};
  record["cycles"] = Value{static_cast<long long>(cycles)};
  if (!stop.empty()) record["stop"] = Value{stop};
  hub_.publish(common::json::dump(Value{std::move(record)}));
}

std::string Session::run_async(Cycle max_cycles) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::string gate = gate_idle(); !gate.empty()) return gate;
  reap_worker();
  has_run_ = true;
  pause_requested_.store(false, std::memory_order_relaxed);
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (config_.deadline_ms != 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(config_.deadline_ms);
  }
  state_ = SessionState::kRunning;
  journal_event(journal_.get(), id_, "running", cached_cycles_);
  publish_state("running", cached_cycles_, {});
  worker_ = std::thread(
      [this, max_cycles, deadline] { worker_run(max_cycles, deadline); });
  return {};
}

void Session::worker_run(
    Cycle max_cycles,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  // Exclusive owner of system_ until the state flips back to idle.
  core::StopReason reason = core::StopReason::kCycleLimit;
  std::string expired;  // non-empty: [srv-deadline] terminal teardown
  while (true) {
    const Cycle current = system_->stats().cycles;
    if (current >= max_cycles) break;
    // Supervision, on the quantum boundary: the lifetime cycle budget
    // and the wall-clock deadline. A quantum is never interrupted, so a
    // deadline that passes mid-quantum expires at its end.
    if (config_.max_cycles != 0 && current >= config_.max_cycles) {
      expired = "[srv-deadline] cycle budget exhausted (max_cycles=" +
                std::to_string(config_.max_cycles) + ")";
      break;
    }
    if (deadline && std::chrono::steady_clock::now() >= *deadline) {
      expired = "[srv-deadline] wall-clock deadline exceeded (deadline_ms=" +
                std::to_string(config_.deadline_ms) + ")";
      break;
    }
    Cycle target = std::min(current + config_.control_quantum, max_cycles);
    if (config_.max_cycles != 0) target = std::min(target, config_.max_cycles);
    reason = system_->run(target);
    if (config_.metrics) {
      using common::json::Value;
      common::json::Object record;
      record["stream"] = Value{std::string("metrics")};
      record["cycle"] =
          Value{static_cast<long long>(system_->stats().cycles)};
      common::json::Object counters;
      for (const auto& [key, value] : system_->metrics_snapshot().counters) {
        counters[key] = Value{static_cast<long long>(value)};
      }
      record["counters"] = Value{std::move(counters)};
      hub_.publish(common::json::dump(Value{std::move(record)}));
    }
    if (journal_ != nullptr && config_.ckpt_every != 0 &&
        system_->stats().cycles - last_journal_cycle_ >= config_.ckpt_every) {
      journal_checkpoint();
    }
    if (reason != core::StopReason::kCycleLimit) break;  // terminal stop
    if (pause_requested_.load(std::memory_order_relaxed) ||
        kill_requested_.load(std::memory_order_relaxed)) {
      break;
    }
  }
  if (!expired.empty()) {
    expire_with(expired);
    return;
  }
  const Cycle cycles = system_->stats().cycles;
  std::string stop = core::stop_reason_name(reason);
  if (reason == core::StopReason::kDeadlock) {
    // Structured deadlock state instead of the generic reason name: the
    // diagnosis (channel, direction, PC, occupancy) plus the starved
    // core, dispatchable on the stable [srv-deadlock] code.
    stop = "[srv-deadlock] ";
    const std::optional<core::DeadlockDiagnosis> diagnosis =
        system_->deadlock_diagnosis();
    stop += diagnosis ? diagnosis->to_string()
                      : std::string("deadlock detected (no diagnosis)");
    if (const std::size_t culprit = system_->stop_core();
        culprit < system_->core_count()) {
      stop += " [core " + system_->core_name(culprit) + "]";
    }
  }
  // Every run exit is durable: the journal always holds the stopped
  // state, so a crash between runs recovers to exactly this point.
  if (journal_ != nullptr &&
      (!journal_has_checkpoint_ || cycles != last_journal_cycle_)) {
    journal_checkpoint();
  }
  journal_event(journal_.get(), id_, "idle", cycles, stop);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cached_cycles_ = cycles;
    cached_stop_ = stop;
    state_ = SessionState::kIdle;
    publish_state("idle", cycles, stop);
  }
  cv_.notify_all();
}

void Session::journal_checkpoint() {
  JournalCheckpoint record;
  record.cycle = system_->stats().cycles;
  for (const std::unique_ptr<std::ofstream>& stream : trace_files_) {
    stream->flush();
    stream->seekp(0, std::ios::end);  // append mode: make tellp the size
    const std::streamoff offset = stream->tellp();
    record.trace_offsets.push_back(
        offset > 0 ? static_cast<u64>(offset) : 0);
  }
  record.metrics = system_->metrics_state();
  record.image = system_->snapshot();
  if (Status written = journal_->write_checkpoint(record); !written.ok) {
    std::fprintf(stderr, "session %llu: %s\n",
                 static_cast<unsigned long long>(id_),
                 written.message.c_str());
    return;
  }
  last_journal_cycle_ = record.cycle;
  journal_has_checkpoint_ = true;
}

void Session::expire_with(const std::string& stop) {
  const Cycle cycles = system_->stats().cycles;
  journal_event(journal_.get(), id_, "deadline", cycles, stop);
  // Release the admission budget before kKilled is visible: a client
  // woken by the killed state may admit a follow-up session at once.
  // Outside mutex_, since the manager takes its own lock. A concurrent
  // kill() ends the session too, so the budget is due back either way
  // (releasing a charge twice is a no-op).
  if (on_expire_) on_expire_(id_);
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cached_cycles_ = cycles;
    cached_stop_ = stop;
    if (!killing_) {
      // Terminal self-kill: the session stays in the pool as killed so
      // clients can read the [srv-deadline] stop, but its admission
      // budget is released (on_expire_) for follow-up sessions.
      owner = true;
      state_ = SessionState::kKilled;
      publish_state("killed", cycles, stop);
    } else {
      // A concurrent kill() is joining this thread and owns the
      // terminal transition; hand over as a normal idle exit.
      state_ = SessionState::kIdle;
    }
  }
  cv_.notify_all();
  if (owner) hub_.close();
}

std::string Session::adopt_recovery(const JournalCheckpoint& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Status restored = system_->restore_image(record.image); !restored.ok) {
    return "[srv-ckpt] " + restored.message;
  }
  if (!record.metrics.empty()) {
    if (Status restored = system_->restore_metrics_state(record.metrics);
        !restored.ok) {
      return "[srv-ckpt] " + restored.message;
    }
  }
  has_run_ = true;
  cached_cycles_ = system_->stats().cycles;
  cached_stop_ = "recovered";
  recovered_from_ = record.cycle;
  last_journal_cycle_ = record.cycle;
  journal_has_checkpoint_ = true;
  publish_state("recovered", cached_cycles_, {});
  return {};
}

void Session::drain(std::chrono::steady_clock::time_point deadline) {
  hub_.publish("{\"stream\":\"draining\"}");
  Cycle cycles = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (state_ == SessionState::kRunning) {
      pause_requested_.store(true, std::memory_order_relaxed);
      cv_.wait_until(lock, deadline,
                     [this] { return state_ != SessionState::kRunning; });
    }
    cycles = cached_cycles_;
  }
  // The worker checkpointed on its way out; just mark the drain. The
  // journal dir survives (unlike DELETE), so --recover resumes here.
  journal_event(journal_.get(), id_, "drained", cycles);
  (void)kill();
}

std::string Session::pause() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (state_ == SessionState::kDebug) {
    return "[srv-running] a debug client drives this session; detach it "
           "instead of pausing";
  }
  if (state_ != SessionState::kRunning) {
    return "[srv-not-running] no run in progress";
  }
  pause_requested_.store(true, std::memory_order_relaxed);
  cv_.wait(lock, [this] { return state_ != SessionState::kRunning; });
  pause_requested_.store(false, std::memory_order_relaxed);
  return {};
}

std::string Session::kill() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Idempotent, including against a concurrent kill: the caller that
    // set killing_ owns the teardown; everyone else returns at once.
    if (state_ == SessionState::kKilled || killing_) return {};
    killing_ = true;
    kill_requested_.store(true, std::memory_order_relaxed);
    // Take the handle while holding the mutex: run_async/start_debug
    // move-assign worker_ under it, and killing_ keeps them from
    // spawning a replacement while we join outside the lock.
    std::swap(worker, worker_);
  }
  // Join outside the mutex: the worker takes it to flip back to idle.
  if (worker.joinable()) worker.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_ = SessionState::kKilled;
    publish_state("killed", cached_cycles_, cached_stop_);
  }
  hub_.close();
  return {};
}

Expected<std::vector<unsigned char>> Session::checkpoint() {
  using Failure = Expected<std::vector<unsigned char>>;
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::string gate = gate_idle(); !gate.empty()) {
    return Failure::failure(std::move(gate));
  }
  if (!has_run_) {
    return Failure::failure(
        "[srv-never-ran] checkpoint requires a session that has run (or "
        "been restored)");
  }
  return system_->snapshot();
}

std::string Session::restore_image(const std::vector<unsigned char>& image) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::string gate = gate_idle(); !gate.empty()) return gate;
  if (const Status restored = system_->restore_image(image); !restored.ok) {
    return "[srv-ckpt] " + restored.message;
  }
  has_run_ = true;
  cached_cycles_ = system_->stats().cycles;
  cached_stop_ = "restored";
  journal_event(journal_.get(), id_, "restored", cached_cycles_);
  publish_state("restored", cached_cycles_, {});
  return {};
}

Expected<u16> Session::start_debug(u16 port) {
  using Failure = Expected<u16>;
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::string gate = gate_idle(); !gate.empty()) {
    return Failure::failure(std::move(gate));
  }
  Expected<rsp::TcpListener> bound = rsp::TcpListener::listen(port);
  if (!bound) return Failure::failure("[srv-debug] " + bound.error());
  rsp::TcpListener listener = std::move(bound).value();
  const u16 actual = listener.port();
  reap_worker();
  has_run_ = true;  // the client may run the program
  state_ = SessionState::kDebug;
  publish_state("debug", cached_cycles_, {});
  worker_ = std::thread(
      [this, moved = std::move(listener)]() mutable {
        worker_debug(std::move(moved));
      });
  return actual;
}

void Session::worker_debug(rsp::TcpListener listener) {
  std::unique_ptr<rsp::Transport> client;
  while (!kill_requested_.load(std::memory_order_relaxed)) {
    client = listener.accept(100);
    if (client != nullptr) break;
  }
  std::string end = "cancelled";
  if (client != nullptr) {
    sim::GdbServeHooks hooks;
    hooks.busy_listener = &listener;
    hooks.cancel = &kill_requested_;
    const Expected<rsp::SessionEnd> served =
        system_->serve_gdb_on(*client, hooks);
    end = served ? rsp::to_string(served.value()) : served.error();
  }
  const Cycle cycles = system_->stats().cycles;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cached_cycles_ = cycles;
    cached_stop_ = "debug-" + end;
    state_ = SessionState::kIdle;
    publish_state("idle", cycles, cached_stop_);
  }
  cv_.notify_all();
}

void Session::reap_worker() {
  if (worker_.joinable()) worker_.join();
}

std::string Session::gate_idle() const {
  // A session being torn down reports itself as killed even while the
  // worker join is still in flight, so no new worker can slip in.
  if (killing_) return busy_message(SessionState::kKilled);
  if (state_ != SessionState::kIdle) return busy_message(state_);
  return {};
}

std::string Session::info_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"cores\":" + std::to_string(config_.desc.cores.size()) +
                    ",\"cycles\":" + std::to_string(cached_cycles_) +
                    ",\"id\":" + std::to_string(id_);
  if (recovered_from_) {
    out += ",\"recovered_from_cycle\":" + std::to_string(*recovered_from_);
  }
  out += ",\"state\":\"" + std::string(to_string(state_)) + "\",\"stop\":\"" +
         common::json::escape(cached_stop_) + "\"}";
  return out;
}

Expected<std::string> Session::stats_page() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::string gate = gate_idle(); !gate.empty()) {
    return Expected<std::string>::failure(std::move(gate));
  }
  return stats_text(*system_);
}

Expected<std::string> Session::metrics_page() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::string gate = gate_idle(); !gate.empty()) {
    return Expected<std::string>::failure(std::move(gate));
  }
  return system_->metrics_snapshot().to_string();
}

}  // namespace mbcosim::server
