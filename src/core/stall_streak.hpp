// StallStreak: the deadlock counter of a core. A processor blocked on an
// FSL access is deadlocked once it has stalled for the threshold of
// consecutive cycles while no FIFO word crossed its hardware bridge: a
// retired instruction or a moved word restarts the count. Each
// CoSimEngine keeps one across calls and checkpoints, so a split run
// counts like one run; core::ManyCoreEngine::deadlocked() reads them all.
#pragma once

#include "ckpt/ckpt.hpp"
#include "common/types.hpp"
#include "iss/processor.hpp"

namespace mbcosim::core {

/// Default deadlock threshold, in consecutive blocked cycles.
inline constexpr Cycle kDefaultDeadlockThreshold = 100'000;

class StallStreak {
 public:
  /// Forget the streak; `traffic` is CoSimEngine::fifo_traffic() now.
  void restart(u64 traffic) noexcept {
    length_ = 0;
    traffic_ = traffic;
  }

  /// Count one precise step's event, given fifo_traffic() after it.
  void count(iss::Event event, u64 traffic) noexcept {
    if (event == iss::Event::kFslStall && traffic == traffic_) {
      ++length_;
    } else {
      restart(traffic);
    }
  }

  /// Consecutive blocked cycles counted so far.
  [[nodiscard]] Cycle length() const noexcept { return length_; }

  /// The deadlock rule: blocked, for at least `threshold` cycles.
  [[nodiscard]] bool reached(Cycle threshold) const noexcept {
    return length_ != 0 && length_ >= threshold;
  }

  void save_state(ckpt::Writer& writer) const {
    writer.write_u64(traffic_);
    writer.write_u64(length_);
  }
  void load_state(ckpt::Reader& reader) {
    traffic_ = reader.read_u64();
    length_ = reader.read_u64();
  }

 private:
  u64 traffic_ = 0;
  Cycle length_ = 0;
};

}  // namespace mbcosim::core
