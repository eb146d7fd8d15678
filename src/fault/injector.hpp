// Injector: applies one FaultPlan to the live components of a simulated
// system. Count-triggered faults (the N-th FSL write, the N-th OPB
// transaction) are *armed* into the component's own fault controls
// before the run starts — the component counts its operations and fires
// the fault itself, keeping the run loop untouched. Point-triggered
// faults (bit flips at a cycle or PC, stuck handshake flags) are *fired*
// by the run orchestration (sim::SimSystem::run) once the simulation has
// been brought to the trigger point.
//
// Zero-cost contract: with no plan armed, none of the hooked components
// (iss::Processor, fsl::FslChannel, bus::OpbBus) pays more than a
// null-pointer branch, the dbt fast path stays available, and
// every statistic and golden trace is bit-identical to a build without
// this subsystem.
#pragma once

#include <string>

#include "bus/opb_bus.hpp"
#include "fault/fault_plan.hpp"
#include "fsl/fsl_hub.hpp"
#include "iss/processor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_bus.hpp"

namespace mbcosim::fault {

class Injector {
 public:
  explicit Injector(FaultPlan plan) : plan_(plan) {}

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// True when the plan must be fired at a stopped trigger point
  /// (cycle/pc) by the run orchestration; false when arm() alone
  /// installs it (count-triggered channel/bus faults).
  [[nodiscard]] bool needs_point_trigger() const noexcept {
    return plan_.trigger != TriggerKind::kCount;
  }

  /// Install count-triggered faults into the components and clear any
  /// previous arming. Call once per run, after reset.
  void arm(fsl::FslHub* hub, bus::OpbBus* opb);

  /// Fire a point-triggered fault now. `trace` (nullable) receives a
  /// kFaultInject event and `metrics` (nullable) counts it. Records
  /// whether the fault actually landed (a flip into unmapped memory is
  /// masked by construction).
  void fire(iss::Processor& cpu, fsl::FslHub* hub, bus::OpbBus* opb,
            obs::TraceBus* trace, obs::FaultCounters* metrics);

  /// True once fire() ran (or arm() installed a count-triggered fault).
  [[nodiscard]] bool armed_or_fired() const noexcept { return engaged_; }
  /// True when the injection mutated state / armed a control for real.
  [[nodiscard]] bool applied() const noexcept { return applied_; }
  /// Human-readable description of what the injection did.
  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

 private:
  void emit_inject(obs::TraceBus* trace, Cycle cycle) const;

  FaultPlan plan_;
  bool engaged_ = false;
  bool applied_ = false;
  std::string detail_;
};

}  // namespace mbcosim::fault
