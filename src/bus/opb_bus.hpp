// Cycle-accurate arithmetic-level model of the IBM On-chip Peripheral Bus
// (OPB). The paper's environment supports "various bus protocols, such as
// the IBM on-chip peripheral bus (OPB) and the Xilinx fast simplex link"
// (Section III-A); FSL is the fast path used by both applications, OPB is
// the general memory-mapped path. Only the arithmetic aspects of the
// protocol are modelled: address decode, single-beat reads/writes, and
// per-access wait states charged to the processor.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_bus.hpp"

namespace mbcosim::bus {

/// A device attached to the OPB. Offsets are byte offsets from the
/// device's base address, always word-aligned by the bus.
class OpbPeripheral {
 public:
  virtual ~OpbPeripheral() = default;
  [[nodiscard]] virtual Word read(Addr offset) = 0;
  virtual void write(Addr offset, Word value) = 0;
  /// Extra wait states this device adds beyond the bus overhead.
  [[nodiscard]] virtual Cycle device_wait_states() const { return 0; }

  /// Checkpoint hooks. Stateless devices inherit the empty defaults;
  /// stateful ones serialize their registers (see DESIGN.md §11).
  virtual void save_state(ckpt::Writer&) const {}
  [[nodiscard]] virtual bool load_state(ckpt::Reader&) { return true; }
};

/// Result of a bus transaction.
struct BusResponse {
  bool ok = false;      ///< address decoded to a device, transfer completed
  Word data = 0;        ///< read data (reads only)
  Cycle wait_states = 0;  ///< cycles beyond the base access charged to CPU
};

/// Armed fault-injection behaviour of the bus (src/fault's view of a
/// failing OPB slave or arbiter). Held behind a null-by-default pointer
/// so the un-faulted path pays one predictable branch per decoded
/// transaction — same contract as the trace bus.
struct OpbFaultControls {
  enum class Mode : u8 {
    kNone,
    kError,    ///< slave raises the OPB error acknowledge (ok = false)
    kTimeout,  ///< no acknowledge: arbiter times the transfer out
  };
  Mode mode = Mode::kNone;
  u64 countdown = 0;   ///< decoded transactions to let through first
  bool fired = false;  ///< set once the one-shot fault has hit
};

class OpbBus {
 public:
  /// OPB single-beat transfers cost a bus arbitration + address phase;
  /// two wait states is typical for the MicroBlaze OPB master.
  static constexpr Cycle kBusWaitStates = 2;
  /// Wait states charged when the arbiter's watchdog times a transfer
  /// out (OPB timeout counter: 16 cycles of no slave acknowledge).
  static constexpr Cycle kTimeoutWaitStates = 16;

  /// Attach a peripheral at [base, base + size). The bus owns it.
  /// Ranges must be word-aligned and non-overlapping.
  void map(std::string name, Addr base, u32 size,
           std::unique_ptr<OpbPeripheral> peripheral);

  [[nodiscard]] bool decodes(Addr addr) const noexcept;

  [[nodiscard]] BusResponse read(Addr addr);
  [[nodiscard]] BusResponse write(Addr addr, Word value);

  [[nodiscard]] u64 transactions() const noexcept { return transactions_; }

  /// Attach the observability bus (nullptr to detach): every decoded
  /// transaction is reported with its wait states, timestamped with the
  /// bus's simulated-time cursor (driven by the processor).
  void set_trace_bus(obs::TraceBus* bus) noexcept { trace_bus_ = bus; }

  /// Attach the metrics counters (nullptr, the default, to detach):
  /// completed reads and writes and their wait states.
  void set_metrics(obs::OpbCounters* counters) noexcept { metrics_ = counters; }

  // -- fault injection (src/fault) -------------------------------------
  /// Arm fault behaviour on the bus (replaces any previous arming).
  void arm_fault(const OpbFaultControls& controls) {
    fault_ = std::make_unique<OpbFaultControls>(controls);
  }
  /// Return the bus to fault-free operation.
  void clear_fault() noexcept { fault_.reset(); }
  /// Armed controls, or nullptr when the bus is fault-free.
  [[nodiscard]] const OpbFaultControls* fault() const noexcept {
    return fault_.get();
  }

  /// Checkpoint the transaction counter, armed fault controls and every
  /// mapped device's state (the memory map itself is structural).
  /// load_state returns false when the snapshot maps a different number
  /// of devices or a device refuses its slice.
  void save_state(ckpt::Writer& writer) const {
    writer.write_u64(transactions_);
    writer.write_bool(fault_ != nullptr);
    if (fault_ != nullptr) {
      writer.write_u8(static_cast<u8>(fault_->mode));
      writer.write_u64(fault_->countdown);
      writer.write_bool(fault_->fired);
    }
    writer.write_u64(regions_.size());
    for (const Region& region : regions_) {
      region.peripheral->save_state(writer);
    }
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) {
    transactions_ = reader.read_u64();
    if (reader.read_bool()) {
      OpbFaultControls controls;
      const u8 mode = reader.read_u8();
      if (mode > static_cast<u8>(OpbFaultControls::Mode::kTimeout)) {
        return false;
      }
      controls.mode = static_cast<OpbFaultControls::Mode>(mode);
      controls.countdown = reader.read_u64();
      controls.fired = reader.read_bool();
      fault_ = std::make_unique<OpbFaultControls>(controls);
    } else {
      fault_.reset();
    }
    if (reader.read_u64() != regions_.size()) return false;
    for (Region& region : regions_) {
      if (!region.peripheral->load_state(reader)) return false;
    }
    return reader.ok();
  }

 private:
  void emit(obs::EventKind kind, Addr addr, Cycle wait_states) const;

  /// Consume the armed one-shot fault for one decoded transaction.
  /// Returns the mode that fires now (kNone when nothing fires).
  [[nodiscard]] OpbFaultControls::Mode consume_fault() noexcept;

  struct Region {
    std::string name;
    Addr base = 0;
    u32 size = 0;
    std::unique_ptr<OpbPeripheral> peripheral;
  };
  [[nodiscard]] Region* find(Addr addr) noexcept;
  [[nodiscard]] const Region* find(Addr addr) const noexcept;

  std::vector<Region> regions_;
  u64 transactions_ = 0;
  obs::TraceBus* trace_bus_ = nullptr;
  obs::OpbCounters* metrics_ = nullptr;
  std::unique_ptr<OpbFaultControls> fault_;  ///< null = fault-free
};

// ---------------------------------------------------------------------------
// Stock peripherals
// ---------------------------------------------------------------------------

/// Word-addressed scratchpad register file.
class OpbScratchpad : public OpbPeripheral {
 public:
  explicit OpbScratchpad(u32 words) : regs_(words, 0) {}
  [[nodiscard]] Word read(Addr offset) override {
    return regs_.at(offset / 4);
  }
  void write(Addr offset, Word value) override {
    regs_.at(offset / 4) = value;
  }
  void save_state(ckpt::Writer& writer) const override {
    writer.write_u64(regs_.size());
    for (const Word reg : regs_) writer.write_u32(reg);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    if (reader.read_u64() != regs_.size()) return false;
    for (Word& reg : regs_) reg = reader.read_u32();
    return reader.ok();
  }

 private:
  std::vector<Word> regs_;
};

/// Free-running cycle counter with a latch/clear register, like the OPB
/// timer cores shipped with EDK. Offset 0: counter low word (read),
/// write anything to clear. The bus owner advances it via tick().
class OpbTimer : public OpbPeripheral {
 public:
  void tick(Cycle cycles = 1) noexcept { counter_ += cycles; }
  [[nodiscard]] Word read(Addr offset) override {
    return offset == 0 ? static_cast<Word>(counter_)
                       : static_cast<Word>(counter_ >> 32);
  }
  void write(Addr, Word) override { counter_ = 0; }
  void save_state(ckpt::Writer& writer) const override {
    writer.write_u64(counter_);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    counter_ = reader.read_u64();
    return reader.ok();
  }

 private:
  Cycle counter_ = 0;
};

}  // namespace mbcosim::bus
