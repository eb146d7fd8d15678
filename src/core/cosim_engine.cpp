#include "core/cosim_engine.hpp"

#include <algorithm>
#include <cstdio>

#include "ckpt/ckpt.hpp"
#include "core/stall_streak.hpp"
#include "isa/isa.hpp"

namespace mbcosim::core {

std::string DeadlockDiagnosis::to_string() const {
  if (channel.empty()) {
    return "deadlock: processor blocked (no FSL access decodes at pc 0x" +
           [](Addr a) {
             char buffer[16];
             std::snprintf(buffer, sizeof buffer, "%08x", a);
             return std::string(buffer);
           }(pc) +
           ")";
  }
  char buffer[192];
  std::snprintf(buffer, sizeof buffer,
                "deadlock: blocking %s on %s (fsl %u) at pc 0x%08x, "
                "fifo %u/%u, blocked %llu cycles",
                is_get ? "get" : "put", channel.c_str(), channel_id, pc,
                occupancy, depth,
                static_cast<unsigned long long>(blocked_cycles));
  return buffer;
}

DeadlockDiagnosis diagnose_deadlock(const iss::Processor& cpu,
                                    const fsl::FslHub& hub,
                                    Cycle blocked_cycles) {
  DeadlockDiagnosis diagnosis;
  diagnosis.pc = cpu.pc();
  diagnosis.blocked_cycles = blocked_cycles;
  if (!cpu.memory().contains(cpu.pc(), 4)) return diagnosis;
  const isa::Instruction in = isa::decode(cpu.memory().read_word(cpu.pc()));
  if (in.op != isa::Op::kGet && in.op != isa::Op::kPut) return diagnosis;
  diagnosis.is_get = in.op == isa::Op::kGet;
  diagnosis.channel_id = in.fsl_id;
  const fsl::FslChannel& channel = diagnosis.is_get ? hub.from_hw(in.fsl_id)
                                                    : hub.to_hw(in.fsl_id);
  diagnosis.channel = channel.name();
  diagnosis.occupancy = static_cast<u32>(channel.occupancy());
  diagnosis.depth = static_cast<u32>(channel.depth());
  return diagnosis;
}

void CoSimEngine::reset(Addr pc) {
  cpu_.reset(pc);
  if (hardware_ != nullptr) hardware_->reset();
  bridge_.hub().clear();
  hw_cycles_ = 0;
  idle_streak_ = 0;
  skipped_cycles_ = 0;
  last_deadlock_.reset();
}

void CoSimEngine::tick_hardware(Cycle cycles) {
  if (hardware_ == nullptr) return;
  Cycle skipped_this_call = 0;
  for (Cycle i = 0; i < cycles; ++i) {
    if (quiescence_window_ > 0) {
      if (bridge_.interface_active()) {
        idle_streak_ = 0;
      } else if (idle_streak_ >= quiescence_window_) {
        // The peripheral has provably drained, and a skipped cycle
        // changes nothing interface_active() reads: skip the rest.
        skipped_this_call += fast_forward(cycles - i);
        break;
      } else {
        ++idle_streak_;
      }
    }
    if (trace_bus_ != nullptr) trace_bus_->set_time(hw_cycles_);
    bridge_.pre_cycle();
    hardware_->step();
    const bool moved = bridge_.post_cycle();
    ++hw_cycles_;
    if (!moved && hardware_->settled()) {
      // No word moved, so the FIFOs and the next cycle's inputs are
      // unchanged, and the model repeats itself under them: every
      // remaining cycle of this call is this one again.
      skipped_this_call += fast_forward(cycles - i - 1);
      break;
    }
  }
  if (skipped_this_call != 0 && trace_bus_ != nullptr &&
      trace_bus_->enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kQuiesceSkip;
    event.cycle = hw_cycles_;
    event.skipped = skipped_this_call;
    trace_bus_->emit(event);
  }
}

Cycle CoSimEngine::fast_forward(Cycle cycles) {
  // The per-cycle loop would test the interface on each of these cycles
  // and get the same answer every time. An active interface was active
  // on the last cycle too, so its idle streak is already 0.
  Cycle stepped = cycles;
  if (quiescence_window_ > 0 && !bridge_.interface_active()) {
    stepped = std::min(cycles, quiescence_window_ > idle_streak_
                                   ? quiescence_window_ - idle_streak_
                                   : 0);
    idle_streak_ += cycles;
  }
  if (stepped != 0) {
    hardware_->run(stepped);
    if (trace_bus_ != nullptr) trace_bus_->set_time(hw_cycles_ + stepped - 1);
  }
  const Cycle skipped = cycles - stepped;
  skipped_cycles_ += skipped;
  hw_cycles_ += cycles;
  return skipped;
}

iss::StepResult CoSimEngine::debug_step() {
  const iss::StepResult result = cpu_.step();
  tick_hardware(result.cycles);
  return result;
}

StopReason CoSimEngine::declare_deadlock(Cycle blocked_cycles) {
  last_deadlock_ = diagnose_deadlock(cpu_, bridge_.hub(), blocked_cycles);
  if (trace_bus_ != nullptr && trace_bus_->enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kDeadlock;
    event.cycle = cpu_.cycle();
    event.cycles = blocked_cycles;
    event.channel = last_deadlock_->channel.empty()
                        ? nullptr
                        : last_deadlock_->channel.c_str();
    trace_bus_->emit(event);
  }
  return StopReason::kDeadlock;
}

StopReason CoSimEngine::run(Cycle max_cycles) {
  StallStreak streak(deadlock_threshold_, fifo_traffic());
  while (!cpu_.halted() && cpu_.cycle() < max_cycles) {
    if (cpu_.fast_path_available()) {
      // Multi-cycle quantum: run the CPU ahead through code that cannot
      // touch the FSL interface, then advance the hardware model by the
      // same number of cycles. The two sides interact only through the
      // FIFOs, and the batch stops *before* any FSL access, so both
      // clocks agree at every FIFO handshake — the same cycle accuracy
      // as strict one-step alternation, at a fraction of the cost.
      const iss::BatchResult batch = cpu_.run_batch(max_cycles, true);
      if (batch.cycles != 0) {
        tick_hardware(batch.cycles);
        streak.restart(fifo_traffic());
      }
      if (batch.stop == iss::BatchStop::kHalted) return StopReason::kHalted;
      if (batch.stop == iss::BatchStop::kIllegal) return StopReason::kIllegal;
      if (batch.stop == iss::BatchStop::kBudget) continue;  // loop exits
      // kFslPending (or kPrecise): the hardware is at cycle parity; the
      // next instruction takes the precise lock-step path below.
    }
    const iss::StepResult result = cpu_.step();
    // Keep the hardware clock in lock step with the processor clock.
    tick_hardware(result.cycles);
    if (result.event == iss::Event::kHalted) return StopReason::kHalted;
    if (result.event == iss::Event::kIllegal) return StopReason::kIllegal;
    if (streak.deadlocked(result.event, fifo_traffic())) {
      return declare_deadlock(streak.length());
    }
  }
  return cpu_.halted() ? StopReason::kHalted : StopReason::kCycleLimit;
}

void CoSimEngine::save_state(ckpt::Writer& writer) const {
  writer.write_u64(hw_cycles_);
  writer.write_u64(idle_streak_);
  writer.write_u64(skipped_cycles_);
  bridge_.save_state(writer);
}

bool CoSimEngine::load_state(ckpt::Reader& reader) {
  hw_cycles_ = reader.read_u64();
  idle_streak_ = reader.read_u64();
  skipped_cycles_ = reader.read_u64();
  if (!bridge_.load_state(reader)) return false;
  last_deadlock_.reset();
  return reader.ok();
}

CoSimStats CoSimEngine::stats() const {
  CoSimStats stats;
  stats.cycles = cpu_.stats().cycles;
  stats.instructions = cpu_.stats().instructions;
  stats.fsl_stall_cycles = cpu_.stats().fsl_stall_cycles;
  stats.hw_cycles_stepped = hw_cycles_ - skipped_cycles_;
  stats.hw_cycles_skipped = skipped_cycles_;
  stats.bridge = bridge_.stats();
  return stats;
}

}  // namespace mbcosim::core
