// Cycle-accurate instruction-set simulator for the MB32 soft processor —
// the analog of the Xilinx MicroBlaze cycle-accurate simulator the paper
// integrates for "simulation of the software execution platform"
// (Section III-A). The simulator charges the base pipeline latency of
// every instruction (isa::base_latency) plus dynamic stall cycles for
// blocking FSL accesses, so the cycle counts it reports are the ones the
// paper plots in Figures 5 and 7.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bus/opb_bus.hpp"
#include "common/resources.hpp"
#include "common/types.hpp"
#include "fsl/fsl_hub.hpp"
#include "isa/isa.hpp"
#include "iss/exec_tier.hpp"
#include "iss/memory.hpp"
#include "obs/trace_bus.hpp"

namespace mbcosim::ckpt {
class Writer;
class Reader;
}  // namespace mbcosim::ckpt

namespace mbcosim::iss {

/// Why a step / run returned.
enum class Event : u8 {
  kRetired,   ///< one instruction completed
  kFslStall,  ///< blocked on a full/empty FSL this cycle; PC unchanged
  kHalted,    ///< branch-to-self reached (program end)
  kIllegal,   ///< undecodable word or disabled functional unit
};

struct StepResult {
  Event event = Event::kRetired;
  Cycle cycles = 0;  ///< cycles consumed by this step (>= 1 unless halted)
};

/// Why Processor::run_batch returned control to its caller.
enum class BatchStop : u8 {
  kBudget,      ///< cycle budget reached; every batched instruction retired
  kFslPending,  ///< next instruction is an FSL access, NOT executed — the
                ///< co-simulation engine must bring the hardware to cycle
                ///< parity before stepping it (stop_before_fsl mode only)
  kFslStall,    ///< an FSL access executed precisely and blocked (one stall
                ///< cycle charged, PC unchanged)
  kHalted,      ///< branch-to-self retired; processor is halted
  kIllegal,     ///< architectural error; processor is halted
  kPrecise,     ///< the fast path is unavailable (enabled trace bus
                ///< attached, or predecode disabled); nothing ran
};

struct BatchResult {
  BatchStop stop = BatchStop::kPrecise;
  Cycle cycles = 0;  ///< cycles consumed by this batch
};

/// Execution statistics accumulated since reset.
struct CpuStats {
  u64 instructions = 0;
  Cycle cycles = 0;
  Cycle fsl_stall_cycles = 0;
  u64 loads = 0;
  u64 stores = 0;
  u64 fsl_reads = 0;
  u64 fsl_writes = 0;
  u64 branches = 0;
  u64 branches_taken = 0;
  u64 multiplies = 0;
  u64 opb_accesses = 0;
  Cycle opb_wait_cycles = 0;
};

/// Counters of the superblock (dbt) execution tier. Deliberately *not*
/// part of CpuStats: CpuStats is bit-identical across execution tiers,
/// while these describe the translation machinery itself. They are not
/// checkpointed either — a restore drops every translation (the cached
/// text belongs to the pre-restore image), and the counters restart
/// with the regenerated blocks.
struct DbtStats {
  u64 blocks_translated = 0;  ///< superblocks stitched (incl. re-translations)
  u64 block_dispatches = 0;   ///< block entries, incl. block-to-block chaining
  u64 smc_retirements = 0;    ///< stores into translated text retiring blocks
  u64 dbt_instructions = 0;   ///< instructions retired inside block dispatch
                              ///< (fast-path share = this / instructions)
};

/// A user-customized instruction datapath (Nios-style ISA customization,
/// paper Section I). The compute function sees the two source operands
/// and returns the result written to rd; `latency` is the unit's total
/// pipeline occupancy in cycles; `resources` feeds the rapid estimator.
struct CustomInstruction {
  std::string name;
  std::function<Word(Word ra, Word rb)> compute;
  Cycle latency = 1;
  ResourceVec resources;
};

class Processor {
 public:
  /// The processor aliases (does not own) its LMB memory; an optional
  /// FslHub connects it to customized hardware peripherals.
  Processor(isa::CpuConfig config, LmbMemory& memory,
            fsl::FslHub* fsl_hub = nullptr);

  /// Attach a memory-mapped OPB bus; data accesses whose addresses fall
  /// outside the LMB memory decode on it (and pay its wait states).
  void attach_opb(bus::OpbBus* opb) noexcept { opb_ = opb; }

  /// Install a custom instruction in `slot` (0..kNumCustomSlots-1);
  /// cust<slot> rd, ra, rb then executes it. Executing an empty slot is
  /// an architectural illegal-opcode event. Throws SimError on a bad
  /// slot, missing compute function or zero latency.
  void register_custom_instruction(unsigned slot, CustomInstruction unit);
  [[nodiscard]] const CustomInstruction* custom_instruction(
      unsigned slot) const;

  void reset(Addr pc = 0);

  /// Execute (at most) one instruction. A blocked blocking FSL access
  /// consumes exactly one cycle and leaves the PC unchanged, so a
  /// co-simulation engine can advance the hardware model in lock step —
  /// this is how "the processor gets stalled until In#_full becomes low"
  /// (Section III-B) is realised.
  StepResult step();

  /// Convenience runner for processor-only workloads: steps until the
  /// program halts or the cycle budget is exhausted. Returns the final
  /// event (kHalted, kIllegal, or kFslStall/kRetired when out of budget).
  /// Internally uses the batched fast path whenever it is available.
  Event run(Cycle max_cycles);

  /// Batched fast-path execution: run straight-line/branchy code in a
  /// tight loop with the per-step trace-hook, trace-bus and dispatch
  /// overhead hoisted out, using the predecode cache. Stats are charged
  /// bit-identically to an equivalent sequence of step() calls. Falls
  /// back to the precise step() inside the batch for instructions that
  /// need it (IMM prefix pending, delay slot, custom slot, FSL access
  /// when `stop_before_fsl` is false). Returns immediately with
  /// BatchStop::kPrecise (zero cycles) when an enabled trace bus is
  /// attached or the predecode cache is disabled.
  ///
  /// With `stop_before_fsl` a pending FSL access is *not* executed:
  /// control returns with BatchStop::kFslPending so a co-simulation
  /// engine can first advance the hardware model to cycle parity — this
  /// is what keeps multi-cycle CPU quanta cycle-accurate at every FIFO
  /// boundary.
  BatchResult run_batch(Cycle max_cycles, bool stop_before_fsl);

  /// True when run_batch would make progress: predecode on, no enabled
  /// trace bus.
  [[nodiscard]] bool fast_path_available() const noexcept {
    return predecode_enabled_ &&
           (trace_bus_ == nullptr || !trace_bus_->enabled());
  }

  /// Select the execution tier (default: ExecTier::kDbt). Dropping to
  /// kPredecode retires every superblock; dropping to kPrecise also
  /// releases the predecode cache and restores decode-per-step
  /// execution. All three tiers are bit-identical in architectural
  /// state and CpuStats (DESIGN.md §12).
  void set_exec_tier(ExecTier tier);
  [[nodiscard]] ExecTier exec_tier() const noexcept { return exec_tier_; }

  /// Counters of the superblock tier (all zero below ExecTier::kDbt).
  [[nodiscard]] const DbtStats& dbt_stats() const noexcept {
    return dbt_stats_;
  }

  /// True on the predecode and dbt tiers (set_exec_tier).
  [[nodiscard]] bool predecode_enabled() const noexcept {
    return predecode_enabled_;
  }

  /// Drop every predecoded entry and retire every translated
  /// superblock. Required after writing instruction memory from
  /// *outside* the processor while a program is in flight (stores
  /// executed by the program itself, reset() and the debugger's setmem
  /// invalidate automatically).
  void invalidate_predecode() noexcept {
    ++predecode_gen_;
    ++dbt_gen_;  // every superblock stitched from that text dies with it
  }
  /// Drop the single entry covering `addr` (cheaper targeted form).
  /// When a translated superblock covers the word, *all* blocks retire
  /// (generation bump) — the self-modifying-code rule of DESIGN.md §12.
  void invalidate_predecode(Addr addr) noexcept {
    const std::size_t index = addr >> 2;
    if (index < predecode_.size()) predecode_[index].gen = 0;
    if (index < dbt_cover_.size() && dbt_cover_[index] == dbt_gen_) {
      ++dbt_gen_;
      dbt_stats_.smc_retirements += 1;
      dbt_heat_[index] = 0;  // the rewritten word re-earns its promotion
    }
  }

  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] Addr pc() const noexcept { return pc_; }
  /// Debugger-level jump: move the PC without executing a branch. Any
  /// pending IMM prefix or delay-slot target belongs to the abandoned
  /// instruction stream and is discarded, and a halted processor becomes
  /// runnable again (the halt was a property of the old PC).
  void set_pc(Addr pc) noexcept {
    pc_ = pc;
    imm_prefix_.reset();
    delay_target_.reset();
    halted_ = false;
  }
  [[nodiscard]] Word msr() const noexcept { return msr_; }
  void set_msr(Word value) noexcept { msr_ = value; }

  [[nodiscard]] Word reg(unsigned index) const;
  void set_reg(unsigned index, Word value);

  [[nodiscard]] const CpuStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Cycle cycle() const noexcept { return stats_.cycles; }

  /// Checkpoint the architectural state and statistics (not the memory,
  /// which the owner serializes separately; see DESIGN.md §11). Restoring
  /// invalidates the predecode cache — the cached text belongs to the
  /// pre-restore memory image. load_state returns false on a shape or
  /// payload mismatch.
  void save_state(ckpt::Writer& writer) const;
  [[nodiscard]] bool load_state(ckpt::Reader& reader);

  [[nodiscard]] LmbMemory& memory() noexcept { return memory_; }
  [[nodiscard]] const LmbMemory& memory() const noexcept { return memory_; }
  [[nodiscard]] const isa::CpuConfig& config() const noexcept {
    return config_;
  }

  /// Attach the observability bus (nullptr to detach). The processor
  /// emits instruction retire/stall/halt/illegal events and drives the
  /// bus's simulated-time cursor; when the bus is null (the default)
  /// the only cost is one branch per step.
  void set_trace_bus(obs::TraceBus* bus) noexcept { trace_bus_ = bus; }
  [[nodiscard]] obs::TraceBus* trace_bus() const noexcept {
    return trace_bus_;
  }

 private:
  struct ExecOutcome {
    Event event = Event::kRetired;
    bool branch_taken = false;
  };

  /// Compact dispatch tag of a predecoded instruction, chosen once at
  /// predecode time so the batched loop classifies with one compare.
  enum class DispatchTag : u8 {
    kFast,  ///< run_batch may execute it inline
    kSlow,  ///< needs the precise step() (IMM prefix, custom slot)
    kFsl,   ///< FSL access: a co-simulation must sync hardware first
  };

  /// One predecoded instruction word: the decoded form plus everything
  /// step() would otherwise recompute on every execution. An entry is
  /// valid iff `gen == predecode_gen_`; stores into cached text clear
  /// `gen`, reset() bumps `predecode_gen_` (O(1) full invalidation).
  struct Predecoded {
    isa::Instruction in;
    Word raw = 0;
    u64 gen = 0;
    u8 lat_taken = 1;      ///< isa::base_latency(in, true), <= 34
    u8 lat_not_taken = 1;  ///< isa::base_latency(in, false)
    DispatchTag tag = DispatchTag::kSlow;
    /// Control flow (kBr/kBcc/kRtsd): the next PC starts a basic block,
    /// so the dbt tier only counts promotion heat after these.
    bool boundary = false;
  };

  /// One token-threaded instruction of a translated superblock: the
  /// handler selector plus every pre-extracted field the dispatch loop
  /// needs, so executing it touches neither the decoder nor the
  /// predecode cache. `imm` holds the sign-extended operand-b immediate
  /// (or, for static branch terminators, the resolved target address).
  struct DbtOp {
    Addr pc = 0;       ///< guest address (terminator kTermFall: resume pc)
    u32 imm = 0;
    u8 id = 0;         ///< DbtHandler index (processor_dbt.cpp)
    u8 rd = 0;
    u8 ra = 0;
    u8 rb = 0;
    u8 lat = 1;        ///< base latency (not-taken for the terminator)
    u8 lat_taken = 1;  ///< taken latency (terminators only)
    u8 flags = 0;      ///< link/delay/absolute + cond (terminators only)
  };

  /// A translated basic block: straight-line kFast instructions ending
  /// at the first control flow, FSL access, IMM/custom instruction or
  /// text-page boundary. Valid iff `gen == dbt_gen_`; retirement is a
  /// generation bump, storage is reused on re-translation.
  struct Superblock {
    std::vector<DbtOp> ops;  ///< body + exactly one terminator
    Addr start = 0;
    u32 words = 0;  ///< instruction words covered (SMC retirement range)
    u64 gen = 0;
  };

  /// Why stitched execution returned to the batch loop.
  enum class DbtRun : u8 {
    kNoBlock,   ///< nothing translated here (yet); use the per-step path
    kContinue,  ///< block(s) executed; resume the batch loop at pc_
    kHalted,
    kIllegal,
  };

  /// Decode the word at `pc` into its cache slot and return the entry.
  /// Pre: predecode enabled, memory_.contains(pc, 4).
  Predecoded& predecode_fetch(Addr pc);

  /// Superblock tier entry point: execute the block at pc_ if one is
  /// translated, otherwise accumulate promotion heat and translate once
  /// the threshold is crossed. Pre: kDbt tier, fast path available,
  /// memory_.contains(pc_, 4), no pending IMM prefix or delay slot.
  DbtRun dbt_enter(Cycle max_cycles);
  /// Build the superblock starting at `start`; false when the leading
  /// instruction cannot be stitched (the head is then blacklisted).
  bool translate_block(Addr start);
  /// Token-threaded dispatch over `block` (and, via chaining, any
  /// already-translated successor blocks). Accounting is bit-identical
  /// to the equivalent step() sequence.
  DbtRun exec_block(const Superblock& block, Cycle max_cycles);

  /// Shared data-side memory paths (LMB fast case, OPB wait states and
  /// error traps, SMC invalidation on stores): both execute() and the
  /// stitched load/store handlers funnel through these, so the tiers
  /// cannot diverge on memory semantics. Return kRetired or kIllegal;
  /// they charge loads/stores/opb_* stats on success.
  Event load_data(Addr addr, unsigned bytes, Word& value);
  Event store_data(Addr addr, unsigned bytes, Word value);

  ExecOutcome execute(const isa::Instruction& in);
  /// Deliver one step result to the trace bus.
  void record_step(Event event, Addr pc, Word raw, Cycle cycles);
  [[nodiscard]] u32 operand_b(const isa::Instruction& in) const;
  void write_rd(u8 rd, Word value);
  void add_family(const isa::Instruction& in, bool subtract, bool use_carry,
                  bool keep_carry);
  [[nodiscard]] bool carry() const noexcept {
    return (msr_ & isa::Msr::kCarry) != 0;
  }
  void set_carry(bool value) noexcept {
    msr_ = value ? (msr_ | isa::Msr::kCarry) : (msr_ & ~isa::Msr::kCarry);
  }

  isa::CpuConfig config_;
  LmbMemory& memory_;
  fsl::FslHub* fsl_hub_;
  bus::OpbBus* opb_ = nullptr;
  /// Wait states from the last OPB transaction, charged by step().
  Cycle pending_wait_states_ = 0;

  Word regs_[isa::kNumRegisters] = {};
  Addr pc_ = 0;
  Word msr_ = 0;
  bool halted_ = false;
  /// High half captured by an IMM prefix, pending for the next type-B.
  std::optional<u16> imm_prefix_;
  /// Branch target to apply after the current delay-slot instruction.
  std::optional<Addr> delay_target_;

  /// Predecode cache, indexed by pc >> 2 over the LMB program region
  /// (sized lazily to the memory on first use; ~40 B per word).
  std::vector<Predecoded> predecode_;
  u64 predecode_gen_ = 1;  ///< entries with a different gen are invalid
  bool predecode_enabled_ = true;

  ExecTier exec_tier_ = ExecTier::kDbt;
  /// Superblock storage: slots are stable (blocks are only ever
  /// overwritten in place on re-translation, never erased), so the
  /// word-indexed maps below can cache slot numbers across retirements.
  std::vector<Superblock> dbt_blocks_;
  std::vector<u32> dbt_index_;  ///< word -> slot + 1 (0 = no block starts here)
  std::vector<u16> dbt_heat_;   ///< word -> promotion counter / blacklist
  std::vector<u64> dbt_cover_;  ///< word -> dbt_gen_ when covered by a block
  u64 dbt_gen_ = 1;             ///< blocks with a different gen are retired
  DbtStats dbt_stats_;

  CpuStats stats_;
  obs::TraceBus* trace_bus_ = nullptr;
  std::array<std::optional<CustomInstruction>, isa::kNumCustomSlots>
      custom_units_;
};

}  // namespace mbcosim::iss
