#include "core/cosim_engine.hpp"

#include <cstdio>

#include "ckpt/ckpt.hpp"
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
  bridge_.reset();
  hw_cycles_ = 0;
  quiescence_.idle_streak = 0;
  skipped_cycles_ = 0;
  forget_deadlock();
}

void CoSimEngine::tick_hardware(Cycle cycles) {
  if (hardware_ == nullptr) return;
  Cycle skipped = 0;
  if (trace_bus_ == nullptr || !trace_bus_->enabled()) {
    skipped = hardware_->tick(cycles, bridge_.ports(), quiescence_);
    // The time cursor rests on the last cycle the model stepped.
    if (trace_bus_ != nullptr && skipped != cycles) {
      trace_bus_->set_time(hw_cycles_ + cycles - skipped - 1);
    }
    hw_cycles_ += cycles;
  } else {
    // One cycle per call, so the bridge's FIFO events carry the cycle
    // they happen on; a skipped cycle leaves the cursor where it was.
    for (Cycle i = 0; i < cycles; ++i) {
      const Cycle time = trace_bus_->time();
      trace_bus_->set_time(hw_cycles_ + i);
      if (hardware_->tick(1, bridge_.ports(), quiescence_) != 0) {
        trace_bus_->set_time(time);
        ++skipped;
      }
    }
    hw_cycles_ += cycles;
  }
  skipped_cycles_ += skipped;
  if (skipped != 0 && metrics_ != nullptr) {
    metrics_->quiesce_skipped += skipped;
  }
  if (skipped != 0 && trace_bus_ != nullptr && trace_bus_->enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kQuiesceSkip;
    event.cycle = hw_cycles_;
    event.skipped = skipped;
    trace_bus_->emit(event);
  }
}

iss::StepResult CoSimEngine::debug_step() {
  const iss::StepResult result = cpu_.step();
  tick_hardware(result.cycles);
  streak_.count(result.event, fifo_traffic());
  return result;
}

StopReason CoSimEngine::declare_deadlock() {
  const Cycle blocked_cycles = streak_.length();
  last_deadlock_ = diagnose_deadlock(cpu_, bridge_.hub(), blocked_cycles);
  if (metrics_ != nullptr) metrics_->deadlocks += 1;
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

void CoSimEngine::sync_to(Cycle cycle) {
  if (cycle == synced_) return;
  tick_hardware(cycle - synced_);
  synced_ = cycle;
}

StopReason CoSimEngine::run(Cycle max_cycles) {
  // The processor syncs the hardware at each FSL access of a batch only
  // while this call runs: the hook points at this engine.
  struct Hook {
    iss::Processor& cpu;
    ~Hook() { cpu.set_fsl_sync({}); }
  } hook{cpu_};
  if (hardware_ != nullptr) {
    cpu_.set_fsl_sync({this, [](void* owner, Cycle cycle) {
                         static_cast<CoSimEngine*>(owner)->sync_to(cycle);
                       }});
  }
  return run_cpu(max_cycles);
}

StopReason CoSimEngine::run_cpu(Cycle max_cycles) {
  while (!cpu_.halted() && cpu_.cycle() < max_cycles) {
    if (cpu_.fast_path_available()) {
      // Multi-cycle quantum: the CPU runs ahead, and the hardware catches
      // up at each FSL access (the processor's FslSync hook) and once at
      // the end. The two sides interact only through the FIFOs, so both
      // clocks agree at every FIFO handshake — the same cycle accuracy
      // as strict one-step alternation, at a fraction of the cost.
      synced_ = cpu_.cycle();
      const iss::BatchResult batch = cpu_.run_batch(max_cycles);
      if (batch.stop == iss::BatchStop::kFslStall) {
        // The hook brought the hardware to the blocked access. Whatever
        // retired before it restarts the streak; the stalled cycle then
        // counts exactly as a precise stall step does.
        if (batch.cycles > 1) streak_.restart(fifo_traffic());
        sync_to(cpu_.cycle());
        streak_.count(iss::Event::kFslStall, fifo_traffic());
        if (streak_.reached(deadlock_threshold_)) return declare_deadlock();
        continue;
      }
      if (batch.cycles != 0) {
        sync_to(cpu_.cycle());
        streak_.restart(fifo_traffic());
      }
      if (batch.stop == iss::BatchStop::kHalted) return StopReason::kHalted;
      if (batch.stop == iss::BatchStop::kIllegal) return StopReason::kIllegal;
      continue;  // kBudget: the loop exits
    }
    const iss::StepResult result = cpu_.step();
    // Keep the hardware clock in lock step with the processor clock.
    tick_hardware(result.cycles);
    streak_.count(result.event, fifo_traffic());
    if (result.event == iss::Event::kHalted) return StopReason::kHalted;
    if (result.event == iss::Event::kIllegal) return StopReason::kIllegal;
    if (streak_.reached(deadlock_threshold_)) return declare_deadlock();
  }
  return cpu_.halted() ? StopReason::kHalted : StopReason::kCycleLimit;
}

void CoSimEngine::save_state(ckpt::Writer& writer) const {
  writer.write_u64(hw_cycles_);
  writer.write_u64(quiescence_.idle_streak);
  writer.write_u64(skipped_cycles_);
  bridge_.save_state(writer);
}

bool CoSimEngine::load_state(ckpt::Reader& reader) {
  hw_cycles_ = reader.read_u64();
  quiescence_.idle_streak = reader.read_u64();
  skipped_cycles_ = reader.read_u64();
  if (!bridge_.load_state(reader)) return false;
  forget_deadlock();
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
