#include "server/journal.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "ckpt/ckpt.hpp"
#include "common/json.hpp"

namespace mbcosim::server {

namespace fs = std::filesystem;

namespace {

/// Layout version of one checkpoint record's (sealed) payload.
constexpr u32 kCheckpointRecordVersion = 1;

/// Write a whole file durably: ".tmp" sibling first, then an atomic
/// rename over the final name. A crash leaves the old file (or none),
/// never a short one.
Status atomic_write(const std::string& path, const void* data,
                    std::size_t size) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::failure("[srv-journal-io] cannot open '" + tmp +
                           "' for writing");
  }
  const std::size_t written =
      size == 0 ? 0 : std::fwrite(data, 1, size, file);
  const bool flushed = std::fflush(file) == 0;
  const bool closed = std::fclose(file) == 0;
  if (written != size || !flushed || !closed) {
    std::remove(tmp.c_str());
    return Status::failure("[srv-journal-io] short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::failure("[srv-journal-io] cannot rename '" + tmp +
                           "' into place");
  }
  return {};
}

Expected<std::string> read_text(const std::string& path) {
  using Failure = Expected<std::string>;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Failure::failure("[srv-journal-io] cannot read '" + path + "'");
  }
  std::string text;
  char chunk[4096];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) {
    return Failure::failure("[srv-journal-io] read error on '" + path + "'");
  }
  return text;
}

/// "session-<digits>" -> id; nullopt for anything else.
std::optional<u64> parse_session_dirname(const std::string& name) {
  const std::string prefix = "session-";
  if (name.rfind(prefix, 0) != 0 || name.size() == prefix.size()) {
    return std::nullopt;
  }
  u64 id = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) {
      return std::nullopt;
    }
    id = id * 10 + static_cast<u64>(name[i] - '0');
  }
  return id;
}

/// "ckpt-<digits>.ckpt" -> seq; nullopt for anything else (including
/// leftover ".tmp" siblings of an interrupted write).
std::optional<u64> parse_checkpoint_filename(const std::string& name) {
  const std::string prefix = "ckpt-";
  const std::string suffix = ".ckpt";
  if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() + suffix.size() ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  u64 seq = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) {
      return std::nullopt;
    }
    seq = seq * 10 + static_cast<u64>(name[i] - '0');
  }
  return seq;
}

/// Checkpoint records in the directory, ascending seq order.
std::vector<std::pair<u64, std::string>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<u64, std::string>> out;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::optional<u64> seq =
        parse_checkpoint_filename(entry.path().filename().string());
    if (seq) out.emplace_back(*seq, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A record's payload up to its image bytes, which follow it as they are.
std::vector<unsigned char> encode_checkpoint_head(
    const JournalCheckpoint& record) {
  ckpt::Writer writer;
  writer.write_u32(kCheckpointRecordVersion);
  writer.write_u64(record.cycle);
  writer.write_u32(static_cast<u32>(record.trace_offsets.size()));
  for (const u64 offset : record.trace_offsets) writer.write_u64(offset);
  writer.write_u64(record.metrics.size());
  writer.write_bytes(record.metrics.data(), record.metrics.size());
  writer.write_u64(record.image.size());
  return writer.take();
}

std::optional<JournalCheckpoint> decode_checkpoint(
    const std::vector<unsigned char>& payload, std::string* error) {
  ckpt::Reader reader(payload);
  if (const u32 version = reader.read_u32();
      version != kCheckpointRecordVersion) {
    *error = "record version " + std::to_string(version) + ", expected " +
             std::to_string(kCheckpointRecordVersion);
    return std::nullopt;
  }
  JournalCheckpoint record;
  record.cycle = reader.read_u64();
  const u32 offsets = reader.read_u32();
  for (u32 i = 0; i < offsets && reader.ok(); ++i) {
    record.trace_offsets.push_back(reader.read_u64());
  }
  const u64 metrics_size = reader.read_u64();
  if (!reader.ok() || metrics_size > reader.remaining()) {
    *error = "record payload ends early";
    return std::nullopt;
  }
  record.metrics.resize(static_cast<std::size_t>(metrics_size));
  reader.read_bytes(record.metrics.data(), record.metrics.size());
  const u64 image_size = reader.read_u64();
  if (!reader.ok() || image_size != reader.remaining()) {
    *error = "record payload ends early";
    return std::nullopt;
  }
  record.image.resize(static_cast<std::size_t>(image_size));
  reader.read_bytes(record.image.data(), record.image.size());
  return record;
}

}  // namespace

std::string SessionJournal::checkpoint_path(u64 seq) const {
  return dir_ + "/ckpt-" + std::to_string(seq) + ".ckpt";
}

std::string SessionJournal::trace_path(std::size_t core_index) const {
  return dir_ + "/trace-" + std::to_string(core_index) + ".jsonl";
}

Status SessionJournal::record_event(const std::string& event, Cycle cycles,
                                    const std::string& stop) {
  using common::json::Value;
  common::json::Object record;
  record["cycles"] = Value{static_cast<long long>(cycles)};
  record["event"] = Value{event};
  if (!stop.empty()) record["stop"] = Value{stop};
  const std::string line = common::json::dump(Value{std::move(record)}) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(dir_ + "/events.jsonl", std::ios::binary | std::ios::app);
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
  out.flush();
  if (!out.good()) {
    return Status::failure("[srv-journal-io] cannot append to '" + dir_ +
                           "/events.jsonl'");
  }
  written_.bytes += line.size();
  ++written_.writes;
  return {};
}

SessionJournal::WriteCounts SessionJournal::write_counts() {
  std::lock_guard<std::mutex> lock(mutex_);
  return written_;
}

Status SessionJournal::write_checkpoint(const JournalCheckpoint& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (next_seq_ == 0) {
    const auto existing = list_checkpoints(dir_);
    next_seq_ = existing.empty() ? 1 : existing.back().first + 1;
  }
  const u64 seq = next_seq_++;
  const std::vector<unsigned char> head = encode_checkpoint_head(record);
  const std::string path = checkpoint_path(seq);
  const std::string tmp = path + ".tmp";
  if (Status written = ckpt::write_sealed(tmp, {head, record.image});
      !written.ok) {
    std::remove(tmp.c_str());
    return Status::failure("[srv-journal-io] " + written.message);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::failure("[srv-journal-io] cannot rename '" + tmp +
                           "' into place");
  }
  written_.bytes += ckpt::kHeaderBytes + head.size() + record.image.size();
  ++written_.writes;
  // Keep the new record plus one fallback; prune everything older.
  for (const auto& [old_seq, old_path] : list_checkpoints(dir_)) {
    if (old_seq + 1 < seq) std::remove(old_path.c_str());
  }
  return {};
}

std::optional<JournalCheckpoint> SessionJournal::newest_valid_checkpoint(
    std::vector<std::string>* log) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<u64, std::string>> records = list_checkpoints(dir_);
  if (next_seq_ == 0) {
    next_seq_ = records.empty() ? 1 : records.back().first + 1;
  }
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    Expected<std::vector<unsigned char>> payload = ckpt::read_sealed(it->second);
    if (!payload) {
      if (log != nullptr) {
        log->push_back("[srv-journal-corrupt] skipping '" + it->second +
                       "': " + payload.error());
      }
      continue;
    }
    std::string error;
    std::optional<JournalCheckpoint> record =
        decode_checkpoint(payload.value(), &error);
    if (!record) {
      if (log != nullptr) {
        log->push_back("[srv-journal-corrupt] skipping '" + it->second +
                       "': " + error);
      }
      continue;
    }
    return record;
  }
  return std::nullopt;
}

Status SessionJournal::truncate_traces(const std::vector<u64>& offsets,
                                       std::size_t core_count) {
  for (std::size_t i = 0; i < core_count; ++i) {
    const std::string path = trace_path(i);
    const u64 offset = i < offsets.size() ? offsets[i] : 0;
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      if (offset == 0) continue;
      return Status::failure("[srv-journal-io] trace file '" + path +
                             "' is missing");
    }
    fs::resize_file(path, offset, ec);
    if (ec) {
      return Status::failure("[srv-journal-io] cannot truncate '" + path +
                             "': " + ec.message());
    }
  }
  return {};
}

Expected<std::unique_ptr<JournalStore>> JournalStore::open(
    std::string state_dir) {
  using Failure = Expected<std::unique_ptr<JournalStore>>;
  std::error_code ec;
  fs::create_directories(state_dir, ec);
  if (ec) {
    return Failure::failure("[srv-journal-io] cannot create state dir '" +
                            state_dir + "': " + ec.message());
  }
  const std::string manifest_path = state_dir + "/manifest.json";
  if (fs::exists(manifest_path, ec)) {
    Expected<std::string> text = read_text(manifest_path);
    if (!text) return Failure::failure(text.error());
    Expected<common::json::Value> parsed = common::json::parse(text.value());
    if (!parsed || !parsed.value().is_object()) {
      return Failure::failure("[srv-journal-corrupt] manifest '" +
                              manifest_path + "' does not parse");
    }
    long long format = 0;
    if (std::string err = common::json::get_int(
            parsed.value().object(), "format", "manifest", true, format);
        !err.empty()) {
      return Failure::failure("[srv-journal-corrupt] manifest '" +
                              manifest_path + "': " + err);
    }
    if (format != kJournalFormatVersion) {
      return Failure::failure(
          "[srv-journal-version] state dir format " + std::to_string(format) +
          ", this build reads format " +
          std::to_string(kJournalFormatVersion));
    }
  } else {
    const std::string manifest =
        "{\"format\":" + std::to_string(kJournalFormatVersion) + "}\n";
    if (Status written =
            atomic_write(manifest_path, manifest.data(), manifest.size());
        !written.ok) {
      return Failure::failure(written.message);
    }
  }
  return std::unique_ptr<JournalStore>(new JournalStore(std::move(state_dir)));
}

Expected<std::unique_ptr<SessionJournal>> JournalStore::create_session(
    u64 id, const std::string& request_json) {
  using Failure = Expected<std::unique_ptr<SessionJournal>>;
  const std::string dir = dir_ + "/session-" + std::to_string(id);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Failure::failure("[srv-journal-io] cannot create '" + dir +
                            "': " + ec.message());
  }
  if (Status written = atomic_write(dir + "/request.json",
                                    request_json.data(), request_json.size());
      !written.ok) {
    return Failure::failure(written.message);
  }
  return std::make_unique<SessionJournal>(id, dir);
}

std::vector<JournalStore::ScanEntry> JournalStore::scan(
    std::vector<std::string>* log) {
  std::vector<ScanEntry> out;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_directory()) continue;
    const std::optional<u64> id =
        parse_session_dirname(entry.path().filename().string());
    if (!id) continue;
    const std::string dir = entry.path().string();
    Expected<std::string> request = read_text(dir + "/request.json");
    if (!request) {
      if (log != nullptr) {
        log->push_back("[srv-journal-corrupt] skipping session " +
                       std::to_string(*id) + ": " + request.error());
      }
      continue;
    }
    ScanEntry scanned;
    scanned.id = *id;
    scanned.request_json = std::move(request).value();
    // Last parseable lifecycle event; a torn tail line is ignored.
    if (Expected<std::string> events = read_text(dir + "/events.jsonl")) {
      const std::string& text = events.value();
      std::size_t pos = 0;
      while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos) end = text.size();
        const std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.empty()) continue;
        Expected<common::json::Value> parsed = common::json::parse(line);
        if (!parsed || !parsed.value().is_object()) continue;
        std::string event;
        if (common::json::get_string(parsed.value().object(), "event",
                                     "event", true, event)
                .empty()) {
          scanned.last_event = std::move(event);
        }
      }
    }
    scanned.journal = std::make_unique<SessionJournal>(*id, dir);
    out.push_back(std::move(scanned));
  }
  std::sort(out.begin(), out.end(),
            [](const ScanEntry& a, const ScanEntry& b) { return a.id < b.id; });
  return out;
}

Status JournalStore::remove_session(u64 id) {
  const std::string dir = dir_ + "/session-" + std::to_string(id);
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (ec) {
    return Status::failure("[srv-journal-io] cannot remove '" + dir +
                           "': " + ec.message());
  }
  return {};
}

}  // namespace mbcosim::server
