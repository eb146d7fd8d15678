#include "fault/injector.hpp"

#include <cstdio>

namespace mbcosim::fault {

namespace {

std::string hex32(u32 value) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "0x%x", value);
  return buffer;
}

[[nodiscard]] fsl::FslChannel* select_channel(const FaultPlan& plan,
                                              fsl::FslHub* hub) {
  if (hub == nullptr) return nullptr;
  return plan.site == FaultSite::kFslToHw ? &hub->to_hw(plan.channel)
                                          : &hub->from_hw(plan.channel);
}

[[nodiscard]] fsl::FslFaultControls stream_controls(const FaultPlan& plan,
                                                    u64 countdown) {
  fsl::FslFaultControls controls;
  switch (plan.mode) {
    case FaultMode::kCorruptWord:
      controls.stream = fsl::FslFaultControls::Stream::kCorrupt;
      controls.mask = plan.effective_mask();
      break;
    case FaultMode::kDropWord:
      controls.stream = fsl::FslFaultControls::Stream::kDrop;
      break;
    case FaultMode::kDuplicateWord:
      controls.stream = fsl::FslFaultControls::Stream::kDuplicate;
      break;
    case FaultMode::kFlipControl:
      controls.stream = fsl::FslFaultControls::Stream::kFlipControl;
      break;
    default:
      break;
  }
  controls.countdown = countdown;
  return controls;
}

}  // namespace

void Injector::arm(fsl::FslHub* hub, bus::OpbBus* opb) {
  if (plan_.trigger != TriggerKind::kCount) return;
  switch (plan_.site) {
    case FaultSite::kFslToHw:
    case FaultSite::kFslFromHw: {
      fsl::FslChannel* channel = select_channel(plan_, hub);
      if (channel == nullptr) {
        detail_ = "no FSL hub: " + plan_.to_string() + " cannot arm";
        return;
      }
      channel->arm_fault(stream_controls(plan_, plan_.trigger_value));
      detail_ = "armed on " + channel->name() + ": " + plan_.to_string();
      break;
    }
    case FaultSite::kOpb: {
      if (opb == nullptr) {
        detail_ = "no OPB bus: " + plan_.to_string() + " cannot arm";
        return;
      }
      bus::OpbFaultControls controls;
      controls.mode = plan_.mode == FaultMode::kBusError
                          ? bus::OpbFaultControls::Mode::kError
                          : bus::OpbFaultControls::Mode::kTimeout;
      controls.countdown = plan_.trigger_value;
      opb->arm_fault(controls);
      detail_ = "armed on opb: " + plan_.to_string();
      break;
    }
    case FaultSite::kMemory:
    case FaultSite::kRegister:
      // validate_plan rejects count triggers for state flips.
      break;
  }
  engaged_ = true;
  applied_ = true;
}

void Injector::fire(iss::Processor& cpu, fsl::FslHub* hub, bus::OpbBus* opb,
                    obs::TraceBus* trace, obs::FaultCounters* metrics) {
  engaged_ = true;
  switch (plan_.site) {
    case FaultSite::kMemory: {
      const Addr addr = plan_.address & ~Addr{3};
      if (!cpu.memory().contains(addr, 4)) {
        detail_ = "masked: address " + hex32(plan_.address) +
                  " is outside the LMB memory";
        break;
      }
      const Word mask = plan_.effective_mask();
      const Word before = cpu.memory().read_word(addr);
      cpu.memory().write_word(addr, before ^ mask);
      // The flip may have landed on instruction memory: force a
      // re-decode exactly like a self-modifying store would.
      cpu.invalidate_predecode(addr);
      applied_ = true;
      detail_ = "flipped mem[" + hex32(addr) + "] " + hex32(before) +
                " -> " + hex32(before ^ mask);
      break;
    }
    case FaultSite::kRegister: {
      const Word mask = plan_.effective_mask();
      const Word before = cpu.reg(plan_.reg);
      cpu.set_reg(plan_.reg, before ^ mask);
      applied_ = true;
      detail_ = "flipped r" + std::to_string(plan_.reg) + " " +
                hex32(before) + " -> " + hex32(before ^ mask);
      break;
    }
    case FaultSite::kFslToHw:
    case FaultSite::kFslFromHw: {
      fsl::FslChannel* channel = select_channel(plan_, hub);
      if (channel == nullptr) {
        detail_ = "masked: no FSL hub to inject into";
        break;
      }
      if (plan_.mode == FaultMode::kStuckFull ||
          plan_.mode == FaultMode::kStuckEmpty) {
        fsl::FslFaultControls controls;
        controls.stuck_full = plan_.mode == FaultMode::kStuckFull;
        controls.stuck_empty = plan_.mode == FaultMode::kStuckEmpty;
        channel->arm_fault(controls);
        applied_ = true;
        detail_ = std::string(mode_name(plan_.mode)) + " on " +
                  channel->name();
      } else {
        // Cycle-triggered stream fault: hit the next word in flight.
        channel->arm_fault(stream_controls(plan_, 0));
        applied_ = true;
        detail_ = "armed next-write " + std::string(mode_name(plan_.mode)) +
                  " on " + channel->name();
      }
      break;
    }
    case FaultSite::kOpb: {
      if (opb == nullptr) {
        detail_ = "masked: no OPB bus to inject into";
        break;
      }
      bus::OpbFaultControls controls;
      controls.mode = plan_.mode == FaultMode::kBusError
                          ? bus::OpbFaultControls::Mode::kError
                          : bus::OpbFaultControls::Mode::kTimeout;
      controls.countdown = 0;
      opb->arm_fault(controls);
      applied_ = true;
      detail_ = "armed next-transaction " +
                std::string(mode_name(plan_.mode)) + " on opb";
    }
  }
  if (metrics != nullptr) metrics->injects += 1;
  emit_inject(trace, cpu.cycle());
}

void Injector::emit_inject(obs::TraceBus* trace, Cycle cycle) const {
  if (trace == nullptr || !trace->enabled()) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::kFaultInject;
  event.cycle = cycle;
  event.label = mode_name(plan_.mode);
  event.detail = detail_.c_str();
  trace->emit(event);
}

}  // namespace mbcosim::fault
