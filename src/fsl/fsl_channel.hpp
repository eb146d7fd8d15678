// Cycle-accurate arithmetic-level model of a Xilinx Fast Simplex Link.
//
// FSLs are unidirectional FIFOs carrying a 32-bit data word plus one
// control bit per entry (paper Section III-B). The MicroBlaze-class
// processor owns up to 8 input and 8 output channels. The model exposes
// the FSL handshake flags by their paper names:
//   - `exists` (Out#_exists): data available on the read side;
//   - `full`   (In#_full): FIFO cannot accept another word.
// Blocking/non-blocking behaviour lives in the ISS / co-simulation engine
// (a blocking access stalls the processor until the flag allows progress);
// this class is the FIFO state machine itself.
//
// The FIFO is a ring of entries: a head index and an occupancy, so the
// flags, a push and a pop are index arithmetic on one array. The ring
// holds min(depth, kDefaultDepth) entries at construction and doubles,
// up to `depth`, only when a push finds it full below the depth, so a
// deep FIFO costs memory only for the words it has held at once.
// Checkpoints list the entries head to tail, whatever the ring's layout.
//
// peek, try_read and try_write are inline. An unobserved channel (no
// fault armed, no metrics attached, the trace bus absent or without
// sinks) takes a fast path that is index arithmetic alone; any observer
// sends the call out of line, where the counters and events are charged.
// Every mutation of the FIFO or of its flags bumps changes(), so a reader
// that presents the FIFO state elsewhere (core::FslBridge) can tell when
// it has to present it again.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_bus.hpp"

namespace mbcosim::ckpt {
class Writer;
class Reader;
}  // namespace mbcosim::ckpt

namespace mbcosim::fsl {

/// One FIFO entry: data word + control bit. The control bit is how the
/// paper's applications send configuration words (e.g. the CORDIC C0
/// constant and the matrix-B block elements) down the same channel as data.
struct FslEntry {
  Word data = 0;
  bool control = false;

  friend bool operator==(const FslEntry&, const FslEntry&) = default;
};

/// Armed fault-injection behaviour of one channel (src/fault's view of a
/// corrupted or failing FSL link). The channel holds these behind a
/// null-by-default pointer, so the un-faulted hot path pays exactly one
/// predictable branch per operation — the same contract as the trace
/// bus — and statistics stay bit-identical when nothing is armed.
struct FslFaultControls {
  /// One-shot transformation of a single word passing through the FIFO,
  /// applied to the `countdown`-th try_write after arming (0 = the next
  /// one). Models a transient upset of the link while the word is in
  /// flight.
  enum class Stream : u8 {
    kNone,       ///< no stream fault
    kCorrupt,    ///< XOR the data word with `mask`
    kDrop,       ///< accept the handshake but lose the word
    kDuplicate,  ///< enqueue the word twice (second copy only if room)
    kFlipControl ///< invert the control bit
  };
  Stream stream = Stream::kNone;
  u64 countdown = 0;  ///< writes to let through before the fault fires
  Word mask = 0;      ///< XOR mask for kCorrupt
  bool fired = false; ///< set once the one-shot stream fault has hit

  /// Persistent handshake-flag faults (stuck-at upsets in the FIFO
  /// status logic). Stuck-full refuses every write; stuck-empty hides
  /// every queued word from the reader. Both typically hang the system
  /// — which is exactly the failure class they exist to provoke.
  bool stuck_full = false;
  bool stuck_empty = false;
};

class FslChannel {
 public:
  /// Default FIFO depth matches the Xilinx FSL core default of 16 entries.
  static constexpr std::size_t kDefaultDepth = 16;

  explicit FslChannel(std::size_t depth = kDefaultDepth,
                      std::string name = "fsl");

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t occupancy() const noexcept { return count_; }

  /// In#_full flag: true when a write would be refused.
  [[nodiscard]] bool full() const noexcept {
    return count_ >= depth_ || (fault_ != nullptr && fault_->stuck_full);
  }
  /// Out#_exists flag: true when a read can occur.
  [[nodiscard]] bool exists() const noexcept {
    return count_ != 0 && (fault_ == nullptr || !fault_->stuck_empty);
  }

  /// Master-side write. Returns false (and drops nothing) when full.
  bool try_write(Word data, bool control) {
    if (unobserved() && count_ < ring_.size()) [[likely]] {
      ring_[slot(count_)] = FslEntry{data, control};
      ++count_;
      ++changes_;
      ++total_writes_;
      if (count_ > max_occupancy_) max_occupancy_ = count_;
      return true;
    }
    return write_slow(data, control);
  }

  /// Slave-side read. Empty optional when no data exists.
  std::optional<FslEntry> try_read() {
    if (unobserved()) [[likely]] {
      if (count_ == 0) return std::nullopt;
      // Field by field, as try_write stores them (and as peek() reads
      // them): one wider load over both stores could not be forwarded
      // from them.
      const FslEntry entry{ring_[head_].data, ring_[head_].control};
      pop_head();
      return entry;
    }
    return read_slow();
  }

  /// Inspect the head without consuming it.
  [[nodiscard]] std::optional<FslEntry> peek() const {
    if (!exists()) return std::nullopt;
    return FslEntry{ring_[head_].data, ring_[head_].control};
  }

  void clear() noexcept {
    head_ = 0;
    count_ = 0;
    ++changes_;
  }

  /// Bumped by every change to the FIFO's entries or flags: a push, a
  /// pop, clear(), load_state(), corrupt_entry(), arm_fault() and
  /// clear_fault(). Two equal readings bracket no such change.
  [[nodiscard]] u64 changes() const noexcept { return changes_; }

  // Occupancy statistics, used by the co-simulation engine's reports and
  // by the data-set sizing logic the paper describes in Section IV-A ("the
  // size of each set of data is selected carefully so that the results
  // would not overflow the FIFOs").
  [[nodiscard]] u64 total_writes() const noexcept { return total_writes_; }
  [[nodiscard]] u64 total_reads() const noexcept { return total_reads_; }
  [[nodiscard]] u64 refused_writes() const noexcept { return refused_writes_; }
  [[nodiscard]] std::size_t max_occupancy() const noexcept {
    return max_occupancy_;
  }
  void reset_stats();

  /// Attach the observability bus (nullptr to detach): every push, pop
  /// and refused write is reported with the FIFO occupancy after the
  /// operation, timestamped with the bus's simulated-time cursor.
  void set_trace_bus(obs::TraceBus* bus) noexcept { trace_bus_ = bus; }

  /// Attach the metrics counters (nullptr, the default, to detach):
  /// push/pop/refused counts and the occupancy after each push and pop.
  void set_metrics(obs::FslCounters* counters) noexcept { metrics_ = counters; }

  // -- fault injection (src/fault) -------------------------------------
  /// Arm fault behaviour on this channel (replaces any previous arming).
  void arm_fault(const FslFaultControls& controls) {
    fault_ = std::make_unique<FslFaultControls>(controls);
    ++changes_;
  }
  /// Return the channel to fault-free operation.
  void clear_fault() noexcept {
    fault_.reset();
    ++changes_;
  }
  /// Armed controls, or nullptr when the channel is fault-free.
  [[nodiscard]] const FslFaultControls* fault() const noexcept {
    return fault_.get();
  }

  /// Mutate the queued entry at `index` in place (0 = head): XOR the
  /// data word with `mask`, optionally flipping the control bit. Models
  /// an SEU in the FIFO BRAM itself. Returns false when no such entry
  /// is queued (the fault lands on an empty slot and is masked).
  bool corrupt_entry(std::size_t index, Word mask, bool flip_control);

  /// Checkpoint the FIFO contents, statistics and any armed fault
  /// controls (depth and name are structural). load_state returns false
  /// when the snapshot's occupancy exceeds this channel's depth.
  void save_state(ckpt::Writer& writer) const;
  [[nodiscard]] bool load_state(ckpt::Reader& reader);

 private:
  /// No fault armed, no metrics attached, no trace sink listening: the
  /// inline fast paths apply.
  [[nodiscard]] bool unobserved() const noexcept {
    return fault_ == nullptr && metrics_ == nullptr &&
           (trace_bus_ == nullptr || !trace_bus_->enabled());
  }
  /// The out-of-line rest of try_write and try_read: refusal, ring
  /// growth, faults, metrics and trace events.
  bool write_slow(Word data, bool control);
  std::optional<FslEntry> read_slow();
  /// Drop the head entry and count the read. Pre: count_ != 0.
  void pop_head() noexcept {
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    --count_;
    ++changes_;
    ++total_reads_;
  }
  void emit(obs::EventKind kind, Word data, bool control) const;
  /// The ring_ index of the entry `index` places behind the head.
  /// Pre: index < ring_.size().
  [[nodiscard]] std::size_t slot(std::size_t index) const noexcept {
    const std::size_t at = head_ + index;
    return at < ring_.size() ? at : at - ring_.size();
  }
  /// Append an entry. Pre: count_ < depth_.
  void push(FslEntry entry);

  std::size_t depth_;
  std::string name_;
  /// min(depth_, kDefaultDepth) entries, doubled up to depth_ on demand
  std::vector<FslEntry> ring_;
  std::size_t head_ = 0;   ///< ring_ index of the oldest entry
  std::size_t count_ = 0;  ///< queued entries
  u64 changes_ = 0;        ///< see changes()
  u64 total_writes_ = 0;
  u64 total_reads_ = 0;
  u64 refused_writes_ = 0;
  std::size_t max_occupancy_ = 0;
  obs::TraceBus* trace_bus_ = nullptr;
  obs::FslCounters* metrics_ = nullptr;
  std::unique_ptr<FslFaultControls> fault_;  ///< null = fault-free
};

}  // namespace mbcosim::fsl
