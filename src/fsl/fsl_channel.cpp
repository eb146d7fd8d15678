#include "fsl/fsl_channel.hpp"

#include <algorithm>
#include <utility>

#include "ckpt/ckpt.hpp"
#include "common/status.hpp"

namespace mbcosim::fsl {

FslChannel::FslChannel(std::size_t depth, std::string name)
    : depth_(depth), name_(std::move(name)) {
  if (depth_ == 0) {
    throw SimError("FslChannel '" + name_ + "': depth must be nonzero");
  }
  ring_.resize(std::min(depth_, kDefaultDepth));
}

void FslChannel::push(FslEntry entry) {
  if (count_ == ring_.size()) [[unlikely]] {
    // Full below the depth: double the ring, the oldest entry first.
    std::vector<FslEntry> grown(std::min(2 * ring_.size(), depth_));
    for (std::size_t i = 0; i < count_; ++i) grown[i] = ring_[slot(i)];
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[slot(count_)] = entry;
  ++count_;
  ++changes_;
}

void FslChannel::emit(obs::EventKind kind, Word data, bool control) const {
  obs::TraceEvent event;
  event.kind = kind;
  event.cycle = trace_bus_->time();
  event.channel = name_.c_str();
  event.occupancy = static_cast<u32>(count_);
  event.depth = static_cast<u32>(depth_);
  event.data = data;
  event.control = control;
  trace_bus_->emit(event);
}

bool FslChannel::write_slow(Word data, bool control) {
  if (full()) {
    ++refused_writes_;
    if (metrics_ != nullptr) metrics_->refused += 1;
    if (trace_bus_ != nullptr && trace_bus_->enabled()) {
      emit(obs::EventKind::kFslRefused, data, control);
    }
    return false;
  }
  bool duplicate = false;
  if (fault_ != nullptr && fault_->stream != FslFaultControls::Stream::kNone &&
      !fault_->fired) [[unlikely]] {
    if (fault_->countdown == 0) {
      fault_->fired = true;
      switch (fault_->stream) {
        case FslFaultControls::Stream::kCorrupt:
          data ^= fault_->mask;
          break;
        case FslFaultControls::Stream::kFlipControl:
          control = !control;
          break;
        case FslFaultControls::Stream::kDrop:
          // The handshake succeeds but the word never lands in the FIFO
          // — the master has no way to notice the loss.
          ++total_writes_;
          return true;
        case FslFaultControls::Stream::kDuplicate:
          duplicate = true;
          break;
        case FslFaultControls::Stream::kNone:
          break;
      }
    } else {
      --fault_->countdown;
    }
  }
  push(FslEntry{data, control});
  ++total_writes_;
  if (duplicate && count_ < depth_) {
    // The duplicated copy occupies a real FIFO slot but was never
    // written by the master, so it does not count as a write.
    push(FslEntry{data, control});
  }
  max_occupancy_ = std::max(max_occupancy_, count_);
  if (metrics_ != nullptr) {
    metrics_->push += 1;
    metrics_->occupancy.record(count_);
  }
  if (trace_bus_ != nullptr && trace_bus_->enabled()) {
    emit(obs::EventKind::kFslPush, data, control);
  }
  return true;
}

std::optional<FslEntry> FslChannel::read_slow() {
  // Stuck-empty must hide queued words from every reader, not only the
  // ones polite enough to consult exists() first.
  if (!exists()) return std::nullopt;
  const FslEntry entry = ring_[head_];
  pop_head();
  if (metrics_ != nullptr) {
    metrics_->pop += 1;
    metrics_->occupancy.record(count_);
  }
  if (trace_bus_ != nullptr && trace_bus_->enabled()) {
    emit(obs::EventKind::kFslPop, entry.data, entry.control);
  }
  return entry;
}

bool FslChannel::corrupt_entry(std::size_t index, Word mask,
                               bool flip_control) {
  if (index >= count_) return false;
  FslEntry& entry = ring_[slot(index)];
  entry.data ^= mask;
  if (flip_control) entry.control = !entry.control;
  ++changes_;
  return true;
}

void FslChannel::reset_stats() {
  total_writes_ = 0;
  total_reads_ = 0;
  refused_writes_ = 0;
  max_occupancy_ = count_;
}

void FslChannel::save_state(ckpt::Writer& writer) const {
  writer.write_u64(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const FslEntry& entry = ring_[slot(i)];
    writer.write_u32(entry.data);
    writer.write_bool(entry.control);
  }
  writer.write_u64(total_writes_);
  writer.write_u64(total_reads_);
  writer.write_u64(refused_writes_);
  writer.write_u64(max_occupancy_);
  writer.write_bool(fault_ != nullptr);
  if (fault_ != nullptr) {
    writer.write_u8(static_cast<u8>(fault_->stream));
    writer.write_u64(fault_->countdown);
    writer.write_u32(fault_->mask);
    writer.write_bool(fault_->fired);
    writer.write_bool(fault_->stuck_full);
    writer.write_bool(fault_->stuck_empty);
  }
}

bool FslChannel::load_state(ckpt::Reader& reader) {
  const u64 occupancy = reader.read_u64();
  if (!reader.ok() || occupancy > depth_) return false;
  clear();
  for (u64 i = 0; i < occupancy; ++i) {
    const Word data = reader.read_u32();
    const bool control = reader.read_bool();
    push(FslEntry{data, control});
  }
  total_writes_ = reader.read_u64();
  total_reads_ = reader.read_u64();
  refused_writes_ = reader.read_u64();
  max_occupancy_ = static_cast<std::size_t>(reader.read_u64());
  if (reader.read_bool()) {
    FslFaultControls controls;
    const u8 stream = reader.read_u8();
    if (stream > static_cast<u8>(FslFaultControls::Stream::kFlipControl)) {
      return false;
    }
    controls.stream = static_cast<FslFaultControls::Stream>(stream);
    controls.countdown = reader.read_u64();
    controls.mask = reader.read_u32();
    controls.fired = reader.read_bool();
    controls.stuck_full = reader.read_bool();
    controls.stuck_empty = reader.read_bool();
    fault_ = std::make_unique<FslFaultControls>(controls);
  } else {
    fault_.reset();
  }
  ++changes_;
  return reader.ok();
}

}  // namespace mbcosim::fsl
