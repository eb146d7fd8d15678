// CoSimTarget: the one debugger of the simulated machine — the analog of
// mb-gdb in the paper's architecture (Figure 2), driven by the RSP
// server, by `monitor` verbs and by the PC trigger of a fault plan. It
// owns the breakpoint set, the mb-gdb-style text verbs (reg, setreg,
// pc, msr, mem, setmem, step, cont, break, delete, cycles, disasm) and
// the one breakpoint-aware stepping loop. That loop advances the whole
// co-simulated system one precise lock-step unit at a time through one
// machine-step primitive, core::ManyCoreEngine::debug_step(core): the
// debugged core steps once and every other core is brought to parity.
// So gdb `c`/`s`, `monitor cont`/`step` and a PC trigger all keep the
// hardware models and FSL channels at cycle parity with the software at
// every stop. A one-core machine then matches a free run exactly; a
// larger one does only while every stop lies inside its first quantum,
// because a machine step transfers the cross-core links after each
// instruction, not at round boundaries (ROADMAP item 1).
#pragma once

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <string_view>

#include "common/types.hpp"
#include "core/manycore.hpp"

namespace mbcosim::rsp {

/// Stand-in register numbering of the MB32 remote target (DESIGN.md
/// "Remote debug"): gdb register 0..31 are r0..r31, 32 is the PC, 33 is
/// the machine status register. All are 32-bit, little-endian on the
/// wire like the LMB memory.
inline constexpr unsigned kNumRegs = 34;
inline constexpr unsigned kRegPc = 32;
inline constexpr unsigned kRegMsr = 33;

/// Why a resume / step returned control to its caller.
struct StopInfo {
  enum class Kind : u8 {
    kBreakpoint,  ///< stopped on a software breakpoint
    kStep,        ///< single step retired
    kHalted,      ///< program end (branch-to-self) — maps to an exit reply
    kIllegal,     ///< architectural error (undecodable word / bad unit)
    kStalled,     ///< FSL deadlock heuristic fired (no progress possible)
    kBudget,      ///< cycle quantum exhausted; the target can keep running
  };
  Kind kind = Kind::kStep;
  Addr pc = 0;
  /// kStalled: length of the blocked streak (core::StallStreak).
  Cycle blocked_cycles = 0;
};

class CoSimTarget {
 public:
  /// Debug core `core` of `machine`: each step is
  /// `machine.debug_step(core)`, which advances every core. A resume
  /// reports kStalled after `stall_threshold` consecutive stalled cycles
  /// of the debugged core with no FIFO word moved (the core::StallStreak
  /// rule). The machine is aliased, not owned.
  CoSimTarget(core::ManyCoreEngine& machine, std::size_t core,
              Cycle stall_threshold = 100'000)
      : machine_(machine), core_(core), stall_threshold_(stall_threshold) {}

  /// Extra monitor-command handler consulted before the target's own
  /// verbs (an empty reply falls through). SimSystem installs the
  /// `metrics` / `stats` / `fault` / `checkpoint` / `restore` verbs here.
  void set_monitor_extra(std::function<std::string(std::string_view)> extra) {
    monitor_extra_ = std::move(extra);
  }

  /// Value of gdb register `index` (see the numbering above); 0 for an
  /// index outside the file.
  [[nodiscard]] Word read_reg(unsigned index) const;
  /// False for an index outside the file (writes to r0 succeed as no-ops).
  bool write_reg(unsigned index, Word value);

  /// Append `length` guest bytes starting at `addr` to `out`; false when
  /// the range leaves the guest memory (nothing appended).
  bool read_mem(Addr addr, u32 length, std::string& out) const;
  /// Write raw bytes into guest memory; false when out of range.
  bool write_mem(Addr addr, std::string_view bytes);

  void add_breakpoint(Addr addr) { breakpoints_.insert(addr); }
  void remove_breakpoint(Addr addr) { breakpoints_.erase(addr); }

  /// Run until a breakpoint, halt, illegal event, the stall heuristic, or
  /// at most `max_cycles` simulated cycles (Kind::kBudget).
  /// `step_off_breakpoint` suppresses the breakpoint check before the
  /// first instruction so a resume from a breakpoint address makes
  /// progress.
  StopInfo resume(Cycle max_cycles, bool step_off_breakpoint);

  /// Execute exactly one instruction, riding out FSL stalls until it
  /// retires or the stall heuristic fires.
  StopInfo step_one();

  /// Execute one `monitor` command (gdb `qRcmd`) and return its reply:
  ///   reg <n>            -> register value
  ///   setreg <n> <value> -> write register
  ///   pc                 -> current PC
  ///   msr                -> machine status register
  ///   mem <addr>         -> word at addr
  ///   setmem <addr> <v>  -> write word
  ///   step               -> one instruction (step_one)
  ///   cont [cycles]      -> run, optionally bounded (resume; a
  ///                         breakpoint at the current PC stops at once)
  ///   break <addr>       -> set breakpoint
  ///   delete <addr>      -> clear breakpoint
  ///   cycles             -> cycle counter
  ///   disasm             -> disassemble at PC
  /// Unknown input returns "error: ...".
  std::string monitor(std::string_view line);

 private:
  /// The one stepping loop behind resume, step_one and the verbs.
  StopInfo advance(Cycle max_cycles, bool single_step, bool check_first);
  [[nodiscard]] core::CoSimEngine& engine() const {
    return machine_.core_engine(core_);
  }
  [[nodiscard]] iss::Processor& cpu() const { return engine().cpu(); }

  core::ManyCoreEngine& machine_;
  std::size_t core_;
  Cycle stall_threshold_;
  std::set<Addr> breakpoints_;
  std::function<std::string(std::string_view)> monitor_extra_;
};

}  // namespace mbcosim::rsp
