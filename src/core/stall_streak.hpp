// StallStreak: the deadlock heuristic of a single core. A processor
// blocked on an FSL access is called deadlocked once it has stalled for
// `threshold` consecutive cycles while no FIFO word crossed its hardware
// bridge: a retired instruction or a moved word restarts the count.
// Two loops count with it: CoSimEngine::run and the stepping loop of
// rsp::CoSimTarget, the debugger that gdb, `monitor` verbs and
// PC-triggered faults all drive. A one-core machine keeps this rule;
// core::ManyCoreEngine disables it on machines of two or more cores and
// counts whole-machine rounds with a rule of its own.
#pragma once

#include "common/types.hpp"
#include "iss/processor.hpp"

namespace mbcosim::core {

class StallStreak {
 public:
  /// `traffic` is the bridge's word count when counting starts
  /// (CoSimEngine::fifo_traffic()).
  StallStreak(Cycle threshold, u64 traffic) noexcept
      : threshold_(threshold), traffic_(traffic) {}

  /// Forget the streak: the processor made progress.
  void restart(u64 traffic) noexcept {
    length_ = 0;
    traffic_ = traffic;
  }

  /// Account one precise step's event, given the bridge's word count
  /// after it. True once the streak reaches the threshold.
  [[nodiscard]] bool deadlocked(iss::Event event, u64 traffic) noexcept {
    if (event == iss::Event::kFslStall && traffic == traffic_) {
      return ++length_ >= threshold_;
    }
    restart(traffic);
    return false;
  }

  /// Consecutive blocked cycles counted so far.
  [[nodiscard]] Cycle length() const noexcept { return length_; }

 private:
  Cycle threshold_;
  u64 traffic_;
  Cycle length_ = 0;
};

}  // namespace mbcosim::core
