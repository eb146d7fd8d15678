// The full set of FSL links around one soft processor: up to 8 channels
// from the processor to the hardware peripherals ("to_hw", the processor
// is FIFO master) and up to 8 back ("from_hw", the processor is FIFO
// slave), as in the paper's Figure 3.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "ckpt/ckpt.hpp"
#include "common/status.hpp"
#include "fsl/fsl_channel.hpp"

namespace mbcosim::fsl {

class FslHub {
 public:
  static constexpr unsigned kChannels = 8;

  /// `name_prefix` scopes the channel names ("cpu1." gives
  /// "cpu1.mb_to_hw0", ...) so the hubs of a multi-core machine stay
  /// distinguishable in traces and deadlock diagnoses; the default empty
  /// prefix keeps the historical single-core names.
  explicit FslHub(std::size_t depth = FslChannel::kDefaultDepth,
                  const std::string& name_prefix = {})
      : to_hw_{make_bank(name_prefix + "mb_to_hw", depth)},
        from_hw_{make_bank(name_prefix + "hw_to_mb", depth)} {}

  /// Channel the processor writes with put/cput/nput/ncput.
  [[nodiscard]] FslChannel& to_hw(unsigned id) {
    check(id);
    return to_hw_[id];
  }
  [[nodiscard]] const FslChannel& to_hw(unsigned id) const {
    check(id);
    return to_hw_[id];
  }
  /// Channel the processor reads with get/cget/nget/ncget.
  [[nodiscard]] FslChannel& from_hw(unsigned id) {
    check(id);
    return from_hw_[id];
  }
  [[nodiscard]] const FslChannel& from_hw(unsigned id) const {
    check(id);
    return from_hw_[id];
  }

  void clear() {
    for (auto& ch : to_hw_) ch.clear();
    for (auto& ch : from_hw_) ch.clear();
  }

  /// Return every channel to fault-free operation (src/fault).
  void clear_faults() noexcept {
    for (auto& ch : to_hw_) ch.clear_fault();
    for (auto& ch : from_hw_) ch.clear_fault();
  }

  /// Attach the observability bus to every channel (nullptr to detach).
  void set_trace_bus(obs::TraceBus* bus) noexcept {
    for (auto& ch : to_hw_) ch.set_trace_bus(bus);
    for (auto& ch : from_hw_) ch.set_trace_bus(bus);
  }

  /// Wire every channel to its counter block in `registry`, keyed by the
  /// channel's name.
  void set_metrics(obs::MetricsRegistry& registry) {
    for (auto& ch : to_hw_) ch.set_metrics(&registry.fsl(ch.name()));
    for (auto& ch : from_hw_) ch.set_metrics(&registry.fsl(ch.name()));
  }

  /// Checkpoint all 16 channels (FIFO contents, stats, armed faults).
  void save_state(ckpt::Writer& writer) const {
    for (const auto& ch : to_hw_) ch.save_state(writer);
    for (const auto& ch : from_hw_) ch.save_state(writer);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) {
    for (auto& ch : to_hw_) {
      if (!ch.load_state(reader)) return false;
    }
    for (auto& ch : from_hw_) {
      if (!ch.load_state(reader)) return false;
    }
    return true;
  }

 private:
  using Bank = std::array<FslChannel, kChannels>;

  static Bank make_bank(const std::string& prefix, std::size_t depth) {
    return Bank{FslChannel(depth, prefix + "0"), FslChannel(depth, prefix + "1"),
                FslChannel(depth, prefix + "2"), FslChannel(depth, prefix + "3"),
                FslChannel(depth, prefix + "4"), FslChannel(depth, prefix + "5"),
                FslChannel(depth, prefix + "6"),
                FslChannel(depth, prefix + "7")};
  }

  static void check(unsigned id) {
    if (id >= kChannels) {
      throw SimError("FslHub: channel id out of range: " + std::to_string(id));
    }
  }

  Bank to_hw_;
  Bank from_hw_;
};

}  // namespace mbcosim::fsl
