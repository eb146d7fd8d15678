// Target adapter bridging the RSP server onto the simulated machine:
// registers and memory come from iss::Processor (through the
// iss::Debugger run-control front end, whose breakpoint set and
// `monitor` command vocabulary are reused verbatim), and run control
// advances the core's core::CoSimEngine — the full co-simulated system —
// one precise lock-step unit at a time, so the hardware model and the
// FSL channels stay at cycle parity with the software at every stop.
#pragma once

#include <functional>
#include <string>

#include "core/cosim_engine.hpp"
#include "iss/debugger.hpp"
#include "rsp/target.hpp"

namespace mbcosim::rsp {

class CoSimTarget final : public Target {
 public:
  /// `engine` drives the debugger's processor. Both references are
  /// aliased, not owned.
  CoSimTarget(iss::Debugger& debugger, core::CoSimEngine& engine)
      : dbg_(debugger), engine_(engine) {}

  /// Extra monitor-command handler consulted before the debugger's own
  /// vocabulary (an empty reply falls through). SimSystem installs the
  /// `metrics` / `stats` verbs here.
  void set_monitor_extra(std::function<std::string(std::string_view)> extra) {
    monitor_extra_ = std::move(extra);
  }

  /// Consecutive stalled cycles with no retired instruction and no FIFO
  /// word moved before a resume reports StopInfo::Kind::kStalled (the
  /// core::StallStreak deadlock heuristic).
  void set_stall_threshold(Cycle threshold) noexcept {
    stall_threshold_ = threshold;
  }

  /// Override the machine-step primitive. On a multi-core machine the
  /// debugger focuses one core but every step must advance the whole
  /// system coherently, so sim::SimSystem installs
  /// core::ManyCoreEngine::debug_step(core) here; resume/step then use
  /// it instead of the core's own engine.
  void set_step_fn(std::function<iss::StepResult()> step) {
    step_fn_ = std::move(step);
  }

  [[nodiscard]] iss::Debugger& debugger() noexcept { return dbg_; }

  // -- Target ----------------------------------------------------------
  [[nodiscard]] Word read_reg(unsigned index) override;
  bool write_reg(unsigned index, Word value) override;
  bool read_mem(Addr addr, u32 length, std::string& out) override;
  bool write_mem(Addr addr, std::string_view bytes) override;
  void add_breakpoint(Addr addr) override { dbg_.add_breakpoint(addr); }
  void remove_breakpoint(Addr addr) override { dbg_.remove_breakpoint(addr); }
  StopInfo resume(Cycle max_cycles, bool step_off_breakpoint) override;
  StopInfo step_one() override;
  std::string monitor(std::string_view line) override;
  [[nodiscard]] Cycle cycles() const override {
    return dbg_.cpu().cycle();
  }

 private:
  /// One precise machine step: the processor plus the hardware model
  /// brought to cycle parity.
  iss::StepResult machine_step();

  iss::Debugger& dbg_;
  core::CoSimEngine& engine_;
  Cycle stall_threshold_ = 100'000;
  std::function<iss::StepResult()> step_fn_;
  std::function<std::string(std::string_view)> monitor_extra_;
};

}  // namespace mbcosim::rsp
