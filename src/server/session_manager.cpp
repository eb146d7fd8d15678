#include "server/session_manager.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/json.hpp"

namespace mbcosim::server {

Expected<std::shared_ptr<Session>> SessionManager::create(
    SessionConfig config) {
  using Failure = Expected<std::shared_ptr<Session>>;
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.size() >= limits_.max_sessions) {
    return Failure::failure(
        "[srv-busy] session limit reached (" +
        std::to_string(limits_.max_sessions) + " live sessions)");
  }
  const unsigned cost = session_cost(config);
  if (used_budget_ + cost > limits_.worker_budget) {
    return Failure::failure(
        "[srv-busy] worker budget exhausted (" + std::to_string(used_budget_) +
        " of " + std::to_string(limits_.worker_budget) + " in use, need " +
        std::to_string(cost) + ")");
  }
  std::unique_ptr<SessionJournal> journal;
  if (store_ != nullptr) {
    Expected<std::unique_ptr<SessionJournal>> created =
        store_->create_session(next_id_, session_config_to_json(config));
    if (!created) return Failure::failure(created.error());
    journal = std::move(created).value();
  }
  Expected<std::shared_ptr<Session>> built =
      Session::create(next_id_, std::move(config), std::move(journal));
  if (!built) {
    if (store_ != nullptr) (void)store_->remove_session(next_id_);
    return built;
  }
  std::shared_ptr<Session> session = std::move(built).value();
  ++next_id_;
  used_budget_ += session->cost();
  charges_[session->id()] = session->cost();
  sessions_[session->id()] = session;
  session->set_on_expire([this](u64 id) { release_budget(id); });
  return session;
}

Expected<std::shared_ptr<Session>> SessionManager::find(u64 id) {
  using Failure = Expected<std::shared_ptr<Session>>;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Failure::failure("[srv-unknown-session] no session " +
                            std::to_string(id));
  }
  return it->second;
}

void SessionManager::release_budget(u64 id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = charges_.find(id);
  if (it == charges_.end()) return;
  used_budget_ -= std::min(used_budget_, it->second);
  charges_.erase(it);
}

std::string SessionManager::kill(u64 id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return "[srv-unknown-session] no session " + std::to_string(id);
    }
    session = std::move(it->second);
    sessions_.erase(it);
    if (const auto charged = charges_.find(id); charged != charges_.end()) {
      used_budget_ -= std::min(used_budget_, charged->second);
      charges_.erase(charged);
    }
  }
  // Outside the lock: the kill joins the worker thread, which may take
  // a control quantum to notice.
  std::string killed = session->kill();
  if (store_ != nullptr) (void)store_->remove_session(id);
  return killed;
}

std::vector<std::shared_ptr<Session>> SessionManager::list() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Session>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(session);
  return out;
}

void SessionManager::kill_all() {
  std::vector<std::shared_ptr<Session>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, session] : sessions_) doomed.push_back(std::move(session));
    sessions_.clear();
    charges_.clear();
    used_budget_ = 0;
  }
  for (const std::shared_ptr<Session>& session : doomed) {
    (void)session->kill();
  }
}

SessionManager::RecoveryReport SessionManager::recover() {
  RecoveryReport report;
  if (store_ == nullptr) return report;
  std::vector<JournalStore::ScanEntry> entries = store_->scan(&report.log);
  for (JournalStore::ScanEntry& entry : entries) {
    const std::string tag = "session " + std::to_string(entry.id);
    if (entry.last_event == "deadline") {
      // Terminal: its deadline killed it; nothing to resume.
      (void)store_->remove_session(entry.id);
      report.log.push_back(tag + ": terminal (" + entry.last_event +
                           "), journal removed");
      continue;
    }
    Expected<common::json::Value> parsed =
        common::json::parse(entry.request_json);
    if (!parsed || !parsed.value().is_object()) {
      report.log.push_back(tag + ": [srv-journal-corrupt] request.json does "
                           "not parse, skipped");
      continue;
    }
    const common::json::Object& request = parsed.value().object();
    const auto machine_it = request.find("machine");
    if (machine_it == request.end()) {
      report.log.push_back(tag + ": [srv-journal-corrupt] request.json has "
                           "no machine, skipped");
      continue;
    }
    Expected<machine::MachineDesc> desc =
        machine::MachineDesc::from_value(machine_it->second);
    if (!desc) {
      report.log.push_back(tag + ": " + desc.error() + ", skipped");
      continue;
    }
    Expected<SessionConfig> config = session_config_from_json(
        request, std::move(desc).value(), SessionConfig{}.control_quantum);
    if (!config) {
      report.log.push_back(tag + ": " + config.error() + ", skipped");
      continue;
    }
    const unsigned cost = session_cost(config.value());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      next_id_ = std::max(next_id_, entry.id + 1);
      if (sessions_.size() >= limits_.max_sessions ||
          used_budget_ + cost > limits_.worker_budget) {
        report.log.push_back(tag + ": [srv-busy] over budget, left on disk");
        continue;
      }
    }
    // Restore point first: journaled traces must be cut back before the
    // session reopens them for append.
    std::optional<JournalCheckpoint> checkpoint =
        entry.journal->newest_valid_checkpoint(&report.log);
    const std::size_t cores = config.value().desc.cores.size();
    if (Status truncated = entry.journal->truncate_traces(
            checkpoint ? checkpoint->trace_offsets : std::vector<u64>{},
            config.value().trace ? cores : 0);
        !truncated.ok) {
      report.log.push_back(tag + ": " + truncated.message + ", skipped");
      continue;
    }
    Expected<std::shared_ptr<Session>> built = Session::create(
        entry.id, std::move(config).value(), std::move(entry.journal));
    if (!built) {
      report.log.push_back(tag + ": " + built.error() + ", skipped");
      continue;
    }
    std::shared_ptr<Session> session = std::move(built).value();
    if (checkpoint) {
      if (std::string err = session->adopt_recovery(*checkpoint);
          !err.empty()) {
        report.log.push_back(tag + ": " + err + ", skipped");
        (void)session->kill();
        continue;
      }
      report.log.push_back(tag + ": recovered at cycle " +
                           std::to_string(checkpoint->cycle));
    } else {
      report.log.push_back(tag + ": no valid checkpoint, recovered fresh");
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      used_budget_ += session->cost();
      charges_[session->id()] = session->cost();
      sessions_[session->id()] = session;
    }
    session->set_on_expire([this](u64 id) { release_budget(id); });
    ++report.recovered;
  }
  return report;
}

void SessionManager::drain(u64 timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::vector<std::shared_ptr<Session>> draining = list();
  for (const std::shared_ptr<Session>& session : draining) {
    session->drain(deadline);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_.clear();
  charges_.clear();
  used_budget_ = 0;
}

}  // namespace mbcosim::server
