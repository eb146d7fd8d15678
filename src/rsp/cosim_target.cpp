#include "rsp/cosim_target.hpp"

#include <charconv>
#include <sstream>
#include <vector>

#include "core/stall_streak.hpp"
#include "isa/isa.hpp"

namespace mbcosim::rsp {

Word CoSimTarget::read_reg(unsigned index) const {
  if (index < isa::kNumRegisters) return cpu().reg(index);
  if (index == kRegPc) return cpu().pc();
  if (index == kRegMsr) return cpu().msr();
  return 0;
}

bool CoSimTarget::write_reg(unsigned index, Word value) {
  if (index < isa::kNumRegisters) {
    cpu().set_reg(index, value);  // r0 writes are architectural no-ops
    return true;
  }
  if (index == kRegPc) {
    cpu().set_pc(static_cast<Addr>(value));
    return true;
  }
  if (index == kRegMsr) {
    cpu().set_msr(value);
    return true;
  }
  return false;
}

bool CoSimTarget::read_mem(Addr addr, u32 length, std::string& out) const {
  const iss::LmbMemory& memory = cpu().memory();
  if (!memory.contains(addr, length)) return false;
  out.reserve(out.size() + length);
  for (u32 i = 0; i < length; ++i) {
    out.push_back(static_cast<char>(memory.read_byte(addr + i)));
  }
  return true;
}

bool CoSimTarget::write_mem(Addr addr, std::string_view bytes) {
  iss::LmbMemory& memory = cpu().memory();
  const u32 length = static_cast<u32>(bytes.size());
  if (!memory.contains(addr, length)) return false;
  for (u32 i = 0; i < length; ++i) {
    memory.write_byte(addr + i, static_cast<u8>(bytes[i]));
  }
  // The write may have patched instruction words (this is exactly how
  // gdb plants software breakpoints): drop the predecoded entries of
  // every word the range touches.
  for (Addr word = addr & ~Addr{3}; word < addr + length; word += 4) {
    cpu().invalidate_predecode(word);
  }
  return true;
}

StopInfo CoSimTarget::advance(Cycle max_cycles, bool single_step,
                              bool check_first) {
  iss::Processor& processor = cpu();
  if (processor.halted()) return {StopInfo::Kind::kHalted, processor.pc()};
  const Cycle start = processor.cycle();
  const core::CoSimEngine& engine = this->engine();
  core::StallStreak streak(stall_threshold_, engine.fifo_traffic());
  // A single step never stops on a breakpoint; a resume checks before
  // every instruction, the first one only when `check_first`.
  bool check = check_first && !single_step;
  while (processor.cycle() - start < max_cycles) {
    if (check && breakpoints_.count(processor.pc()) != 0) {
      return {StopInfo::Kind::kBreakpoint, processor.pc()};
    }
    check = !single_step;
    const iss::StepResult result = machine_.debug_step(core_);
    switch (result.event) {
      case iss::Event::kHalted:
        return {StopInfo::Kind::kHalted, processor.pc()};
      case iss::Event::kIllegal:
        return {StopInfo::Kind::kIllegal, processor.pc()};
      case iss::Event::kRetired:
        if (single_step) return {StopInfo::Kind::kStep, processor.pc()};
        [[fallthrough]];
      case iss::Event::kFslStall:
        if (streak.deadlocked(result.event, engine.fifo_traffic())) {
          return {StopInfo::Kind::kStalled, processor.pc(), streak.length()};
        }
        break;  // a stall rides on: the hardware side is catching up
    }
  }
  return {StopInfo::Kind::kBudget, processor.pc()};
}

StopInfo CoSimTarget::resume(Cycle max_cycles, bool step_off_breakpoint) {
  return advance(max_cycles, false, !step_off_breakpoint);
}

StopInfo CoSimTarget::step_one() { return advance(~Cycle{0}, true, false); }

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::istringstream stream{std::string(line)};
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

bool parse_u64(const std::string& text, u64& out) {
  int base = 10;
  std::string_view body = text;
  if (body.size() > 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
    base = 16;
    body.remove_prefix(2);
  }
  const auto* end = body.data() + body.size();
  const auto result = std::from_chars(body.data(), end, out, base);
  return result.ec == std::errc{} && result.ptr == end;
}

std::string hex(u64 value) {
  std::ostringstream os;
  os << "0x" << std::hex << value;
  return os.str();
}

}  // namespace

std::string CoSimTarget::monitor(std::string_view line) {
  if (monitor_extra_) {
    std::string reply = monitor_extra_(line);
    if (!reply.empty()) return reply;
  }
  const auto tokens = tokenize(line);
  if (tokens.empty()) return "error: empty command";
  const std::string& verb = tokens[0];
  auto arg_value = [&](size_t index, u64& out) {
    return index < tokens.size() && parse_u64(tokens[index], out);
  };
  // Every verb takes an exact argument count (cont's budget is the one
  // optional argument); extra trailing tokens are rejected rather than
  // silently ignored, so a typo like `setmem 0x100 1 2` cannot write an
  // unintended location.
  auto wants = [&](std::size_t count) { return tokens.size() == count; };
  iss::Processor& processor = cpu();

  if (verb == "reg") {
    u64 index = 0;
    std::string name = tokens.size() > 1 ? tokens[1] : "";
    if (!name.empty() && name[0] == 'r') name.erase(0, 1);
    if (!wants(2) || !parse_u64(name, index) || index >= isa::kNumRegisters) {
      return "error: reg <0..31>";
    }
    return hex(processor.reg(static_cast<unsigned>(index)));
  }
  if (verb == "setreg") {
    u64 index = 0;
    u64 value = 0;
    std::string name = tokens.size() > 1 ? tokens[1] : "";
    if (!name.empty() && name[0] == 'r') name.erase(0, 1);
    if (!wants(3) || !parse_u64(name, index) || index >= isa::kNumRegisters ||
        !arg_value(2, value)) {
      return "error: setreg <0..31> <value>";
    }
    processor.set_reg(static_cast<unsigned>(index), static_cast<Word>(value));
    return "ok";
  }
  if (verb == "pc") {
    return wants(1) ? hex(processor.pc()) : "error: pc takes no arguments";
  }
  if (verb == "msr") {
    return wants(1) ? hex(processor.msr()) : "error: msr takes no arguments";
  }
  if (verb == "cycles") {
    return wants(1) ? std::to_string(processor.cycle())
                    : "error: cycles takes no arguments";
  }
  if (verb == "mem") {
    u64 addr = 0;
    if (!wants(2) || !arg_value(1, addr)) return "error: mem <addr>";
    if (!processor.memory().contains(static_cast<Addr>(addr) & ~Addr{3}, 4)) {
      return "error: address out of range";
    }
    return hex(processor.memory().read_word(static_cast<Addr>(addr)));
  }
  if (verb == "setmem") {
    u64 addr = 0;
    u64 value = 0;
    if (!wants(3) || !arg_value(1, addr) || !arg_value(2, value)) {
      return "error: setmem <addr> <value>";
    }
    if (!processor.memory().contains(static_cast<Addr>(addr) & ~Addr{3}, 4)) {
      return "error: address out of range";
    }
    processor.memory().write_word(static_cast<Addr>(addr),
                                  static_cast<Word>(value));
    // Poking instruction memory from outside the processor must drop the
    // predecoded entry, or the next fetch would execute the stale word.
    processor.invalidate_predecode(static_cast<Addr>(addr));
    return "ok";
  }
  if (verb == "step" || verb == "cont") {
    u64 budget = ~u64{0};
    if (verb == "step" && !wants(1)) return "error: step takes no arguments";
    if (verb == "cont" &&
        (tokens.size() > 2 || (tokens.size() == 2 && !arg_value(1, budget)))) {
      return "error: cont [cycles]";
    }
    const StopInfo stop = verb == "step" ? step_one() : resume(budget, false);
    switch (stop.kind) {
      case StopInfo::Kind::kStep: return "stopped pc=" + hex(stop.pc);
      case StopInfo::Kind::kBreakpoint: return "breakpoint pc=" + hex(stop.pc);
      case StopInfo::Kind::kHalted: return "halted";
      case StopInfo::Kind::kIllegal: return "illegal";
      case StopInfo::Kind::kStalled: return "stalled";
      case StopInfo::Kind::kBudget: return "cycle-limit";
    }
    return "error: unreachable";
  }
  if (verb == "break" || verb == "delete") {
    u64 addr = 0;
    if (!wants(2) || !arg_value(1, addr)) return "error: " + verb + " <addr>";
    if (verb == "break") {
      add_breakpoint(static_cast<Addr>(addr));
    } else {
      remove_breakpoint(static_cast<Addr>(addr));
    }
    return "ok";
  }
  if (verb == "disasm") {
    if (!wants(1)) return "error: disasm takes no arguments";
    if (!processor.memory().contains(processor.pc(), 4)) {
      return "error: pc out of range";
    }
    return isa::disassemble(processor.memory().read_word(processor.pc()));
  }
  return "error: unknown command '" + verb + "'";
}

}  // namespace mbcosim::rsp
