#include "iss/processor.hpp"

#include <string>

#include "common/bits.hpp"
#include "common/status.hpp"

namespace mbcosim::iss {

using isa::Instruction;
using isa::Op;

Processor::Processor(isa::CpuConfig config, LmbMemory& memory,
                     fsl::FslHub* fsl_hub)
    : config_(config), memory_(memory), fsl_hub_(fsl_hub) {}

void Processor::reset(Addr pc) {
  for (auto& reg : regs_) reg = 0;
  pc_ = pc;
  msr_ = 0;
  halted_ = false;
  imm_prefix_.reset();
  delay_target_.reset();
  pending_wait_states_ = 0;
  stats_ = CpuStats{};
  // A reset usually follows a program (re)load: drop every predecoded
  // entry in O(1) by bumping the generation.
  invalidate_predecode();
}

void Processor::set_exec_tier(ExecTier tier) {
  if (exec_tier_ == tier) return;
  exec_tier_ = tier;
  predecode_enabled_ = tier != ExecTier::kPrecise;
  if (!predecode_enabled_) {
    predecode_.clear();
    predecode_.shrink_to_fit();
  }
  if (tier != ExecTier::kDbt) {
    // Retire and release every superblock; promotion heat restarts from
    // zero if the tier is ever re-enabled.
    ++dbt_gen_;
    dbt_blocks_.clear();
    dbt_blocks_.shrink_to_fit();
    dbt_index_.clear();
    dbt_index_.shrink_to_fit();
    dbt_heat_.clear();
    dbt_heat_.shrink_to_fit();
    dbt_cover_.clear();
    dbt_cover_.shrink_to_fit();
  }
}

Processor::Predecoded& Processor::predecode_fetch(Addr pc) {
  if (predecode_.empty()) predecode_.resize(memory_.size_bytes() / 4);
  Predecoded& entry = predecode_[pc >> 2];
  if (entry.gen == predecode_gen_) return entry;
  entry.raw = memory_.read_word(pc);
  entry.in = isa::decode(entry.raw);
  const isa::LatencyPair latency = isa::base_latencies(entry.in);
  entry.lat_taken = static_cast<u8>(latency.taken);
  entry.lat_not_taken = static_cast<u8>(latency.not_taken);
  switch (entry.in.op) {
    case Op::kGet:
    case Op::kPut:
      entry.tag = DispatchTag::kFsl;
      break;
    case Op::kImm:
    case Op::kCustom:
      entry.tag = DispatchTag::kSlow;
      break;
    default:
      entry.tag = DispatchTag::kFast;
      break;
  }
  entry.boundary = entry.in.op == Op::kBr || entry.in.op == Op::kBcc ||
                   entry.in.op == Op::kRtsd;
  entry.gen = predecode_gen_;
  return entry;
}

Word Processor::reg(unsigned index) const {
  if (index >= isa::kNumRegisters) {
    throw SimError("Processor::reg out of range: " + std::to_string(index));
  }
  return regs_[index];
}

void Processor::set_reg(unsigned index, Word value) {
  if (index >= isa::kNumRegisters) {
    throw SimError("Processor::set_reg out of range: " + std::to_string(index));
  }
  if (index == 0) return;  // r0 is hard-wired to zero
  regs_[index] = value;
}

void Processor::write_rd(u8 rd, Word value) {
  if (rd != 0) regs_[rd] = value;
}

void Processor::register_custom_instruction(unsigned slot,
                                            CustomInstruction unit) {
  if (slot >= isa::kNumCustomSlots) {
    throw SimError("register_custom_instruction: slot out of range: " +
                   std::to_string(slot));
  }
  if (!unit.compute) {
    throw SimError("register_custom_instruction: '" + unit.name +
                   "' has no compute function");
  }
  if (unit.latency == 0) {
    throw SimError("register_custom_instruction: '" + unit.name +
                   "' must take at least one cycle");
  }
  custom_units_[slot] = std::move(unit);
}

const CustomInstruction* Processor::custom_instruction(unsigned slot) const {
  if (slot >= isa::kNumCustomSlots || !custom_units_[slot]) return nullptr;
  return &*custom_units_[slot];
}

u32 Processor::operand_b(const Instruction& in) const {
  if (!in.imm_form) return regs_[in.rb];
  // An IMM prefix supplies the high half; otherwise sign-extend imm16.
  if (imm_prefix_) {
    return (u32(*imm_prefix_) << 16) | (static_cast<u32>(in.imm) & 0xFFFFu);
  }
  return static_cast<u32>(in.imm);
}

void Processor::add_family(const Instruction& in, bool subtract,
                           bool use_carry, bool keep_carry) {
  const u32 opb = operand_b(in);
  const u32 a = subtract ? ~regs_[in.ra] : regs_[in.ra];
  u64 cin = 0;
  if (subtract && !use_carry) {
    cin = 1;  // rsub: rd = opb + ~ra + 1
  } else if (use_carry) {
    cin = carry() ? 1 : 0;
  }
  const u64 sum = u64(a) + u64(opb) + cin;
  write_rd(in.rd, static_cast<Word>(sum));
  if (!keep_carry) set_carry((sum >> 32) != 0);
}

// The data-side memory paths are shared verbatim between execute() and
// the superblock tier's stitched load/store handlers: one body, so the
// execution tiers cannot diverge on LMB/OPB semantics or accounting.

Event Processor::load_data(Addr addr, unsigned bytes, Word& value) {
  if (memory_.contains(addr & ~Addr{bytes - 1}, bytes)) {
    value = bytes == 1   ? memory_.read_byte(addr)
            : bytes == 2 ? memory_.read_half(addr)
                         : memory_.read_word(addr);
  } else if (opb_ != nullptr && opb_->decodes(addr)) {
    const bus::BusResponse response = opb_->read(addr);
    pending_wait_states_ = response.wait_states;
    stats_.opb_accesses += 1;
    stats_.opb_wait_cycles += response.wait_states;
    // An OPB error acknowledge or arbiter timeout raises the
    // MicroBlaze data-bus-error exception; the ISS models it as a
    // trap after charging the cycles the failed transfer consumed.
    if (!response.ok) return Event::kIllegal;
    // Sub-word OPB reads extract the addressed lanes of the word.
    value = response.data >> (8u * (addr & 3u));
    if (bytes == 1) value &= 0xFFu;
    if (bytes == 2) value &= 0xFFFFu;
  } else {
    return Event::kIllegal;
  }
  stats_.loads += 1;
  return Event::kRetired;
}

Event Processor::store_data(Addr addr, unsigned bytes, Word value) {
  if (memory_.contains(addr & ~Addr{bytes - 1}, bytes)) {
    if (bytes == 1) {
      memory_.write_byte(addr, static_cast<u8>(value));
    } else if (bytes == 2) {
      memory_.write_half(addr, static_cast<u16>(value));
    } else {
      memory_.write_word(addr, value);
    }
    // Self-modifying code: a store landing on cached text must force a
    // re-decode at the next fetch of that word (and retire any
    // superblock covering it — invalidate_predecode does both).
    if (!predecode_.empty()) invalidate_predecode(addr);
  } else if (opb_ != nullptr && opb_->decodes(addr)) {
    // OPB writes are full-word; sub-word stores replicate the value
    // onto the addressed lanes (byte-enable behaviour).
    const bus::BusResponse response = opb_->write(addr, value);
    pending_wait_states_ = response.wait_states;
    stats_.opb_accesses += 1;
    stats_.opb_wait_cycles += response.wait_states;
    // Error acknowledge / timeout → data-bus-error trap (see load).
    if (!response.ok) return Event::kIllegal;
  } else {
    return Event::kIllegal;
  }
  stats_.stores += 1;
  return Event::kRetired;
}

void Processor::record_step(Event event, Addr pc, Word raw, Cycle cycles) {
  if (trace_bus_ != nullptr && trace_bus_->enabled()) {
    obs::TraceEvent out;
    switch (event) {
      case Event::kRetired: out.kind = obs::EventKind::kInstrRetire; break;
      case Event::kFslStall: out.kind = obs::EventKind::kInstrStall; break;
      case Event::kHalted: out.kind = obs::EventKind::kInstrHalt; break;
      case Event::kIllegal: out.kind = obs::EventKind::kInstrIllegal; break;
    }
    out.cycle = stats_.cycles;
    out.pc = pc;
    out.raw = raw;
    out.cycles = cycles;
    trace_bus_->emit(out);
  }
}

StepResult Processor::step() {
  if (halted_) return StepResult{Event::kHalted, 0};

  // Keep the bus's simulated-time cursor at the step's start cycle so
  // FSL/OPB events emitted while executing carry the right timestamp.
  if (trace_bus_ != nullptr) trace_bus_->set_time(stats_.cycles);

  if (!memory_.contains(pc_, 4)) {
    // An instruction-fetch fault occupies the pipeline for one cycle,
    // exactly like the execute-stage illegal path below.
    halted_ = true;
    stats_.cycles += 1;
    record_step(Event::kIllegal, pc_, 0, 1);
    return StepResult{Event::kIllegal, 1};
  }
  const Addr fetch_pc = pc_;
  // First fetch of a PC decodes into the predecode cache; every later
  // fetch is a table lookup (stores into cached text invalidate, so
  // self-modifying code still sees its new instruction words).
  Word raw;
  Instruction in;
  if (predecode_enabled_) {
    const Predecoded& entry = predecode_fetch(fetch_pc);
    raw = entry.raw;
    in = entry.in;
  } else {
    raw = memory_.read_word(fetch_pc);
    in = isa::decode(raw);
  }

  const ExecOutcome outcome = execute(in);
  if (outcome.event == Event::kFslStall) {
    // Blocked blocking FSL access: burn one cycle, PC unchanged, so the
    // hardware model can advance and eventually unblock us.
    stats_.cycles += 1;
    stats_.fsl_stall_cycles += 1;
    record_step(Event::kFslStall, fetch_pc, raw, 1);
    return StepResult{Event::kFslStall, 1};
  }
  if (outcome.event == Event::kIllegal) {
    halted_ = true;
    // A faulting OPB access may have queued wait states; the trap
    // preempts them (and they must not leak into a post-reset step).
    pending_wait_states_ = 0;
    stats_.cycles += 1;
    record_step(Event::kIllegal, fetch_pc, raw, 1);
    return StepResult{Event::kIllegal, 1};
  }
  if (outcome.event == Event::kHalted) {
    halted_ = true;
    // The halting branch (bri 0) still occupies the pipeline; charge it.
    const Cycle cycles = isa::base_latency(in, true);
    stats_.cycles += cycles;
    stats_.instructions += 1;
    record_step(Event::kHalted, fetch_pc, raw, cycles);
    return StepResult{Event::kHalted, cycles};
  }

  Cycle cycles = isa::base_latency(in, outcome.branch_taken);
  if (pending_wait_states_ != 0) {
    // Dynamic extra cycles: OPB wait states or a custom unit's latency.
    cycles += pending_wait_states_;
    pending_wait_states_ = 0;
  }
  stats_.cycles += cycles;
  stats_.instructions += 1;
  record_step(Event::kRetired, fetch_pc, raw, cycles);
  return StepResult{Event::kRetired, cycles};
}

Processor::ExecOutcome Processor::execute(const Instruction& in) {
  ExecOutcome out;
  const Addr this_pc = pc_;
  // True when this instruction sits in the delay slot of the branch that
  // set delay_target_ on the previous step.
  const bool in_delay_slot = delay_target_.has_value();
  Addr next_pc = pc_ + 4;
  bool consume_imm_prefix = true;

  switch (in.op) {
    case Op::kAdd:
      add_family(in, false, false, false);
      break;
    case Op::kAddc:
      add_family(in, false, true, false);
      break;
    case Op::kAddk:
      add_family(in, false, false, true);
      break;
    case Op::kRsub:
      add_family(in, true, false, false);
      break;
    case Op::kRsubc:
      add_family(in, true, true, false);
      break;
    case Op::kRsubk:
      add_family(in, true, false, true);
      break;
    case Op::kCmp: {
      const i32 a = static_cast<i32>(regs_[in.ra]);
      const i32 b = static_cast<i32>(regs_[in.rb]);
      Word result = regs_[in.rb] - regs_[in.ra];
      // MSB reflects the true signed comparison: set iff rb < ra.
      result = insert_bits(result, 31, 1, b < a ? 1u : 0u);
      write_rd(in.rd, result);
      break;
    }
    case Op::kCmpu: {
      const u32 a = regs_[in.ra];
      const u32 b = regs_[in.rb];
      Word result = b - a;
      result = insert_bits(result, 31, 1, b < a ? 1u : 0u);
      write_rd(in.rd, result);
      break;
    }
    case Op::kMul: {
      if (!config_.has_multiplier) return {Event::kIllegal, false};
      const u64 product = u64(regs_[in.ra]) * u64(operand_b(in));
      write_rd(in.rd, static_cast<Word>(product));
      stats_.multiplies += 1;
      break;
    }
    case Op::kIdiv:
    case Op::kIdivu: {
      if (!config_.has_divider) return {Event::kIllegal, false};
      const u32 divisor = regs_[in.ra];
      const u32 dividend = regs_[in.rb];
      if (divisor == 0) {
        write_rd(in.rd, 0);
      } else if (in.op == Op::kIdiv) {
        write_rd(in.rd, static_cast<Word>(static_cast<i32>(dividend) /
                                          static_cast<i32>(divisor)));
      } else {
        write_rd(in.rd, dividend / divisor);
      }
      break;
    }
    case Op::kBsll:
    case Op::kBsra:
    case Op::kBsrl: {
      if (!config_.has_barrel_shifter) return {Event::kIllegal, false};
      const unsigned amount = operand_b(in) & 31u;
      const u32 value = regs_[in.ra];
      Word result;
      if (in.op == Op::kBsll) {
        result = value << amount;
      } else if (in.op == Op::kBsrl) {
        result = value >> amount;
      } else {
        result = static_cast<u32>(static_cast<i32>(value) >> amount);
      }
      write_rd(in.rd, result);
      break;
    }
    case Op::kOr:
      write_rd(in.rd, regs_[in.ra] | operand_b(in));
      break;
    case Op::kAnd:
      write_rd(in.rd, regs_[in.ra] & operand_b(in));
      break;
    case Op::kXor:
      write_rd(in.rd, regs_[in.ra] ^ operand_b(in));
      break;
    case Op::kAndn:
      write_rd(in.rd, regs_[in.ra] & ~operand_b(in));
      break;
    case Op::kSra: {
      const u32 value = regs_[in.ra];
      write_rd(in.rd, static_cast<u32>(static_cast<i32>(value) >> 1));
      set_carry((value & 1u) != 0);
      break;
    }
    case Op::kSrl: {
      const u32 value = regs_[in.ra];
      write_rd(in.rd, value >> 1);
      set_carry((value & 1u) != 0);
      break;
    }
    case Op::kSrc: {
      const u32 value = regs_[in.ra];
      write_rd(in.rd, (value >> 1) | (carry() ? 0x80000000u : 0u));
      set_carry((value & 1u) != 0);
      break;
    }
    case Op::kSext8:
      write_rd(in.rd, sign_extend(regs_[in.ra], 8));
      break;
    case Op::kSext16:
      write_rd(in.rd, sign_extend(regs_[in.ra], 16));
      break;
    case Op::kImm:
      imm_prefix_ = static_cast<u16>(static_cast<u32>(in.imm) & 0xFFFFu);
      consume_imm_prefix = false;
      break;
    case Op::kMfs:
      write_rd(in.rd, in.imm == 0 ? pc_ : msr_);
      break;
    case Op::kMts:
      msr_ = regs_[in.ra];
      break;
    case Op::kBr: {
      stats_.branches += 1;
      stats_.branches_taken += 1;
      out.branch_taken = true;
      const u32 disp = operand_b(in);
      const Addr target = in.absolute ? disp : this_pc + disp;
      if (in.link) write_rd(in.rd, this_pc);
      if (target == this_pc && !in.link) {
        // Branch-to-self: the conventional end-of-program idle loop.
        return {Event::kHalted, true};
      }
      if (in_delay_slot) return {Event::kIllegal, false};
      if (in.delay_slot) {
        delay_target_ = target;
      } else {
        next_pc = target;
      }
      break;
    }
    case Op::kBcc: {
      stats_.branches += 1;
      const i32 value = static_cast<i32>(regs_[in.ra]);
      bool taken = false;
      switch (in.cond) {
        case isa::Cond::kEq: taken = value == 0; break;
        case isa::Cond::kNe: taken = value != 0; break;
        case isa::Cond::kLt: taken = value < 0; break;
        case isa::Cond::kLe: taken = value <= 0; break;
        case isa::Cond::kGt: taken = value > 0; break;
        case isa::Cond::kGe: taken = value >= 0; break;
      }
      out.branch_taken = taken;
      if (taken) {
        stats_.branches_taken += 1;
        const Addr target = this_pc + operand_b(in);
        if (in_delay_slot) return {Event::kIllegal, false};
        if (in.delay_slot) {
          delay_target_ = target;
        } else {
          next_pc = target;
        }
      }
      break;
    }
    case Op::kRtsd: {
      stats_.branches += 1;
      stats_.branches_taken += 1;
      out.branch_taken = true;
      const Addr target = regs_[in.ra] + static_cast<u32>(in.imm);
      if (in_delay_slot) return {Event::kIllegal, false};
      delay_target_ = target;
      break;
    }
    case Op::kLbu:
    case Op::kLhu:
    case Op::kLw: {
      const Addr addr = regs_[in.ra] + operand_b(in);
      const unsigned bytes =
          in.op == Op::kLbu ? 1u : in.op == Op::kLhu ? 2u : 4u;
      Word value = 0;
      if (load_data(addr, bytes, value) == Event::kIllegal) {
        return {Event::kIllegal, false};
      }
      write_rd(in.rd, value);
      break;
    }
    case Op::kSb:
    case Op::kSh:
    case Op::kSw: {
      const Addr addr = regs_[in.ra] + operand_b(in);
      const unsigned bytes = in.op == Op::kSb ? 1u : in.op == Op::kSh ? 2u : 4u;
      if (store_data(addr, bytes, regs_[in.rd]) == Event::kIllegal) {
        return {Event::kIllegal, false};
      }
      break;
    }
    case Op::kGet: {
      if (fsl_hub_ == nullptr || in.fsl_id >= config_.fsl_links) {
        return {Event::kIllegal, false};
      }
      auto& channel = fsl_hub_->from_hw(in.fsl_id);
      if (!channel.exists()) {
        if (in.fsl_nonblocking) {
          set_carry(true);  // no data: carry flags the failed nget/ncget
          break;
        }
        return {Event::kFslStall, false};
      }
      const auto entry = channel.try_read();
      write_rd(in.rd, entry->data);
      if (entry->control != in.fsl_control) {
        msr_ |= isa::Msr::kFslError;  // control-bit mismatch (Section III-B)
      }
      if (in.fsl_nonblocking) set_carry(false);
      stats_.fsl_reads += 1;
      break;
    }
    case Op::kPut: {
      if (fsl_hub_ == nullptr || in.fsl_id >= config_.fsl_links) {
        return {Event::kIllegal, false};
      }
      auto& channel = fsl_hub_->to_hw(in.fsl_id);
      if (channel.full()) {
        if (in.fsl_nonblocking) {
          set_carry(true);  // FIFO full: carry flags the failed nput/ncput
          break;
        }
        return {Event::kFslStall, false};
      }
      channel.try_write(regs_[in.ra], in.fsl_control);
      if (in.fsl_nonblocking) set_carry(false);
      stats_.fsl_writes += 1;
      break;
    }
    case Op::kCustom: {
      const auto& unit = custom_units_[in.custom_slot];
      if (!unit) return {Event::kIllegal, false};
      write_rd(in.rd, unit->compute(regs_[in.ra], regs_[in.rb]));
      // Charge the unit's latency beyond the 1-cycle base issue cost.
      pending_wait_states_ += unit->latency - 1;
      break;
    }
    case Op::kIllegal:
      return {Event::kIllegal, false};
  }

  if (consume_imm_prefix) imm_prefix_.reset();

  if (in_delay_slot) {
    // This instruction was the delay slot: control now transfers to the
    // branch target recorded on the previous step.
    pc_ = *delay_target_;
    delay_target_.reset();
  } else {
    pc_ = next_pc;
  }
  return out;
}

BatchResult Processor::run_batch(Cycle max_cycles, bool stop_before_fsl) {
  if (!fast_path_available()) return BatchResult{BatchStop::kPrecise, 0};
  const Cycle start_cycles = stats_.cycles;
  const auto consumed = [&] { return stats_.cycles - start_cycles; };
  const bool dbt = exec_tier_ == ExecTier::kDbt;
  // Superblocks start where control flow lands: the batch entry point,
  // branch successors and block exits. Tracking that with one flag
  // confines promotion-heat counting to genuine block-head words.
  bool at_head = true;

  while (!halted_ && stats_.cycles < max_cycles) {
    if (!memory_.contains(pc_, 4)) {
      step();  // charges and records the instruction-fetch fault
      return BatchResult{BatchStop::kIllegal, consumed()};
    }
    const Predecoded& entry = predecode_fetch(pc_);
    if (entry.tag == DispatchTag::kFsl && stop_before_fsl) {
      // Do not execute: the co-simulation engine first brings the
      // hardware model to cycle parity, then steps the FSL access in
      // lock step (covers FSL accesses sitting in a delay slot too).
      return BatchResult{BatchStop::kFslPending, consumed()};
    }
    if (entry.tag != DispatchTag::kFast || imm_prefix_ || delay_target_)
        [[unlikely]] {
      // The precise path — with no hook/bus attached (the fast-path
      // precondition) it is bit-identical, just slower.
      at_head = true;  // conservatively: heat counting is timing-neutral
      switch (step().event) {
        case Event::kRetired:
          continue;
        case Event::kFslStall:
          return BatchResult{BatchStop::kFslStall, consumed()};
        case Event::kHalted:
          return BatchResult{BatchStop::kHalted, consumed()};
        case Event::kIllegal:
          return BatchResult{BatchStop::kIllegal, consumed()};
      }
      continue;
    }

    if (dbt && at_head) {
      // Third tier: whole-superblock dispatch (DESIGN.md §12). Exits
      // land on block heads, so at_head stays true after kContinue.
      switch (dbt_enter(max_cycles)) {
        case DbtRun::kNoBlock:
          break;  // not (yet) translated: per-instruction fast path
        case DbtRun::kContinue:
          continue;
        case DbtRun::kHalted:
          return BatchResult{BatchStop::kHalted, consumed()};
        case DbtRun::kIllegal:
          return BatchResult{BatchStop::kIllegal, consumed()};
      }
    }

    // Fast path: predecoded plain instruction, no prefix/delay state.
    // Accounting mirrors step() exactly, minus the no-op trace calls.
    const ExecOutcome outcome = execute(entry.in);
    if (outcome.event == Event::kRetired) [[likely]] {
      Cycle cycles =
          outcome.branch_taken ? entry.lat_taken : entry.lat_not_taken;
      if (pending_wait_states_ != 0) {
        cycles += pending_wait_states_;
        pending_wait_states_ = 0;
      }
      stats_.cycles += cycles;
      stats_.instructions += 1;
      at_head = entry.boundary;
      continue;
    }
    if (outcome.event == Event::kHalted) {
      halted_ = true;
      stats_.cycles += entry.lat_taken;  // the halting branch is taken
      stats_.instructions += 1;
      return BatchResult{BatchStop::kHalted, consumed()};
    }
    // Event::kIllegal (disabled unit, bad data address, branch in a
    // delay slot); kFslStall is impossible here (FSL ops are not kFast).
    halted_ = true;
    // A faulting OPB access may have queued wait states; the trap
    // preempts them, exactly as in step().
    pending_wait_states_ = 0;
    stats_.cycles += 1;
    return BatchResult{BatchStop::kIllegal, consumed()};
  }
  return BatchResult{BatchStop::kBudget, consumed()};
}

Event Processor::run(Cycle max_cycles) {
  Event last = Event::kRetired;
  while (!halted_ && stats_.cycles < max_cycles) {
    if (fast_path_available()) {
      const BatchResult batch = run_batch(max_cycles, false);
      switch (batch.stop) {
        case BatchStop::kHalted:
          return Event::kHalted;
        case BatchStop::kIllegal:
          return Event::kIllegal;
        case BatchStop::kFslStall:
          last = Event::kFslStall;
          if (fsl_hub_ == nullptr) return last;
          continue;  // keep burning stall cycles, as the step loop does
        case BatchStop::kBudget:
          last = Event::kRetired;
          continue;
        case BatchStop::kFslPending:
        case BatchStop::kPrecise:
          break;  // fall through to the precise step below
      }
    }
    last = step().event;
    if (last == Event::kIllegal || last == Event::kHalted) return last;
    if (last == Event::kFslStall && fsl_hub_ == nullptr) return last;
  }
  return halted_ ? Event::kHalted : last;
}

}  // namespace mbcosim::iss
