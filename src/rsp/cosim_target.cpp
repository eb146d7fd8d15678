#include "rsp/cosim_target.hpp"

#include "core/stall_streak.hpp"

namespace mbcosim::rsp {

Word CoSimTarget::read_reg(unsigned index) {
  iss::Processor& cpu = dbg_.cpu();
  if (index < isa::kNumRegisters) return cpu.reg(index);
  if (index == kRegPc) return cpu.pc();
  if (index == kRegMsr) return cpu.msr();
  return 0;
}

bool CoSimTarget::write_reg(unsigned index, Word value) {
  iss::Processor& cpu = dbg_.cpu();
  if (index < isa::kNumRegisters) {
    cpu.set_reg(index, value);  // r0 writes are architectural no-ops
    return true;
  }
  if (index == kRegPc) {
    cpu.set_pc(static_cast<Addr>(value));
    return true;
  }
  if (index == kRegMsr) {
    cpu.set_msr(value);
    return true;
  }
  return false;
}

bool CoSimTarget::read_mem(Addr addr, u32 length, std::string& out) {
  const iss::LmbMemory& memory = dbg_.cpu().memory();
  if (!memory.contains(addr, length)) return false;
  out.reserve(out.size() + length);
  for (u32 i = 0; i < length; ++i) {
    out.push_back(static_cast<char>(memory.read_byte(addr + i)));
  }
  return true;
}

bool CoSimTarget::write_mem(Addr addr, std::string_view bytes) {
  iss::Processor& cpu = dbg_.cpu();
  iss::LmbMemory& memory = cpu.memory();
  const u32 length = static_cast<u32>(bytes.size());
  if (!memory.contains(addr, length)) return false;
  for (u32 i = 0; i < length; ++i) {
    memory.write_byte(addr + i, static_cast<u8>(bytes[i]));
  }
  // The write may have patched instruction words (this is exactly how
  // gdb plants software breakpoints): drop the predecoded entries of
  // every word the range touches.
  for (Addr word = addr & ~Addr{3}; word < addr + length; word += 4) {
    cpu.invalidate_predecode(word);
  }
  return true;
}

iss::StepResult CoSimTarget::machine_step() {
  if (step_fn_) return step_fn_();
  return engine_.debug_step();
}

StopInfo CoSimTarget::resume(Cycle max_cycles, bool step_off_breakpoint) {
  iss::Processor& cpu = dbg_.cpu();
  if (cpu.halted()) return {StopInfo::Kind::kHalted, cpu.pc()};
  const Cycle start = cpu.cycle();
  core::StallStreak streak(stall_threshold_, engine_.fifo_traffic());
  bool first = step_off_breakpoint;
  while (cpu.cycle() - start < max_cycles) {
    if (!first && dbg_.has_breakpoint(cpu.pc())) {
      return {StopInfo::Kind::kBreakpoint, cpu.pc()};
    }
    const iss::StepResult result = machine_step();
    first = false;
    switch (result.event) {
      case iss::Event::kHalted:
        return {StopInfo::Kind::kHalted, cpu.pc()};
      case iss::Event::kIllegal:
        return {StopInfo::Kind::kIllegal, cpu.pc()};
      case iss::Event::kFslStall:
      case iss::Event::kRetired:
        if (streak.deadlocked(result.event, engine_.fifo_traffic())) {
          return {StopInfo::Kind::kStalled, cpu.pc()};
        }
        break;
    }
  }
  return {StopInfo::Kind::kBudget, cpu.pc()};
}

StopInfo CoSimTarget::step_one() {
  iss::Processor& cpu = dbg_.cpu();
  if (cpu.halted()) return {StopInfo::Kind::kHalted, cpu.pc()};
  core::StallStreak streak(stall_threshold_, engine_.fifo_traffic());
  while (true) {
    const iss::StepResult result = machine_step();
    switch (result.event) {
      case iss::Event::kHalted:
        return {StopInfo::Kind::kHalted, cpu.pc()};
      case iss::Event::kIllegal:
        return {StopInfo::Kind::kIllegal, cpu.pc()};
      case iss::Event::kRetired:
        return {StopInfo::Kind::kStep, cpu.pc()};
      case iss::Event::kFslStall:
        if (streak.deadlocked(result.event, engine_.fifo_traffic())) {
          return {StopInfo::Kind::kStalled, cpu.pc()};
        }
        break;  // ride out the stall: the hardware side is catching up
    }
  }
}

std::string CoSimTarget::monitor(std::string_view line) {
  if (monitor_extra_) {
    std::string reply = monitor_extra_(line);
    if (!reply.empty()) return reply;
  }
  return dbg_.command(line);
}

}  // namespace mbcosim::rsp
