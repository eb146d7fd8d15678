// CoSimEngine: the paper's primary contribution — a high-level
// cycle-accurate hardware/software co-simulation loop (Figure 1/2).
//
// Three simulated components advance in lock step on the single system
// clock:
//   - the software execution platform: the cycle-accurate ISS
//     (iss::Processor, the Xilinx MicroBlaze-simulator analog);
//   - the customized hardware peripherals: a sysgen::Model
//     (the System Generator / Simulink analog);
//   - the communication interface: fsl::FslHub FIFOs bridged into the
//     model by core::FslBridge (the MicroBlaze-Simulink-block analog).
//
// Every processor step reports how many clock cycles it consumed; the
// engine then advances the hardware model by exactly that many cycles, so
// at every FIFO access both sides agree on the cycle count — this is the
// paper's definition of high-level cycle accuracy (Section I). A
// processor blocked on a full/empty FSL burns one cycle per step until
// the hardware makes progress (Section III-B's stalling semantics).
//
// On the fast path (dbt tier, no enabled trace bus) the processor runs in
// multi-cycle batches and the engine never steps an FSL access itself:
// run() installs the processor's FslSync hook, and each access, inside a
// translated superblock or not, first brings the hardware to its own
// cycle through it, then runs in place. One FSL word costs one hardware
// sync. A blocking access that must wait ends the batch with its stalled
// cycle charged, and the engine counts that cycle as it counts a precise
// stall step.
//
// Advancing the hardware is one call into the sysgen kernel
// (Model::tick, DESIGN.md §15): the bridge's port ops, the passes, the
// elision of repeated cycles and the quiescence skip all run inside it.
// Only with an enabled trace bus does the engine tick one cycle per call,
// to stamp each FIFO event with its cycle.
// The engine keeps its core's stall streak across calls and checkpoints,
// and every deadlock is declared by the blocked core's own
// declare_deadlock().
#pragma once

#include <optional>
#include <string>

#include "common/types.hpp"
#include "core/fsl_bridge.hpp"
#include "core/stall_streak.hpp"
#include "fsl/fsl_hub.hpp"
#include "iss/processor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_bus.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::core {

struct CoSimStats {
  Cycle cycles = 0;            ///< total simulated clock cycles
  u64 instructions = 0;        ///< instructions retired by the processor
  Cycle fsl_stall_cycles = 0;  ///< cycles the processor spent blocked
  Cycle hw_cycles_stepped = 0; ///< hardware cycles clocked, including
                               ///< elided ones (Model::settled())
  Cycle hw_cycles_skipped = 0; ///< quiescent cycles fast-forwarded
  BridgeStats bridge;          ///< FIFO traffic
};

enum class StopReason : u8 {
  kHalted,      ///< software reached its end (branch-to-self)
  kCycleLimit,  ///< budget exhausted
  kIllegal,     ///< architectural error in the software
  kDeadlock,    ///< processor blocked on FSL with no hardware progress
};

/// Stable lower-case name of a stop reason (reports, mbcsim output).
[[nodiscard]] constexpr const char* stop_reason_name(
    StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kHalted: return "halted";
    case StopReason::kCycleLimit: return "cycle_limit";
    case StopReason::kIllegal: return "illegal";
    case StopReason::kDeadlock: return "deadlock";
  }
  return "unknown";
}

/// Structured description of *what* was blocked when the deadlock
/// heuristic fired: the FSL access the processor was spinning on, which
/// channel it targeted, and the FIFO state that refused it. Built by
/// diagnose_deadlock() below; surfaced via CoSimEngine /
/// sim::SimSystem::deadlock_diagnosis() and printed by mbcsim.
struct DeadlockDiagnosis {
  std::string channel;       ///< FIFO name (e.g. "hw_to_mb0")
  unsigned channel_id = 0;   ///< FSL link number
  bool is_get = false;       ///< true: blocking get (read); false: put
  Addr pc = 0;               ///< PC of the blocked instruction
  u32 occupancy = 0;         ///< FIFO occupancy at diagnosis time
  u32 depth = 0;
  Cycle blocked_cycles = 0;  ///< length of the blocked streak

  /// One-line human-readable form ("deadlock: blocking get on ...").
  [[nodiscard]] std::string to_string() const;
};

/// Decode the instruction the blocked processor is parked on and
/// describe the deadlock. Valid when the processor's last event was
/// kFslStall (PC unchanged, pointing at the blocking get/put); if the
/// PC does not hold an FSL access the diagnosis is returned with
/// channel empty (diagnosable == channel not empty).
[[nodiscard]] DeadlockDiagnosis diagnose_deadlock(const iss::Processor& cpu,
                                                  const fsl::FslHub& hub,
                                                  Cycle blocked_cycles);

class CoSimEngine {
 public:
  /// `hardware` may be null: a core with no peripheral, whose hardware
  /// side is never ticked.
  CoSimEngine(iss::Processor& cpu, sysgen::Model* hardware, fsl::FslHub& hub)
      : cpu_(cpu), hardware_(hardware), bridge_(hub) {}

  [[nodiscard]] FslBridge& bridge() noexcept { return bridge_; }
  [[nodiscard]] iss::Processor& cpu() noexcept { return cpu_; }
  /// The peripheral model; nullptr for a core with no peripheral.
  [[nodiscard]] sysgen::Model* hardware() noexcept { return hardware_; }

  /// Words the bridge has moved in either direction — the progress
  /// measure of the stall streak.
  [[nodiscard]] u64 fifo_traffic() const noexcept {
    return bridge_.stats().words_to_hw + bridge_.stats().words_from_hw;
  }

  /// Reset processor (to `pc`), hardware model, FIFOs and the bridge's
  /// counters: a rerun counts from zero, like a fresh engine.
  void reset(Addr pc = 0);

  /// Run the co-simulation until the software halts, an error occurs, or
  /// `max_cycles` simulated cycles have elapsed. This is the one loop
  /// that drives a processor; a core with no peripheral (`hardware`
  /// null) runs through it too. When the processor's batched fast path
  /// is available (dbt tier, no trace sinks), the CPU runs in
  /// multi-cycle quanta; the hardware catches up through the FslSync
  /// hook at every FSL access and once at the end of the quantum — cycle
  /// counts and statistics are identical to one-step alternation
  /// because the two sides only interact through the FIFOs. At the
  /// precise tier or with trace sinks attached the engine keeps strict
  /// one-step alternation, so event logs (and their timestamps) are
  /// byte-identical to earlier releases. Stops with kDeadlock once the
  /// stall streak (kept across calls) reaches the deadlock threshold.
  StopReason run(Cycle max_cycles = ~Cycle{0} >> 1);

  /// Advance the hardware (and bridge) alone by `cycles` clock cycles —
  /// used when the software side is idle and by hardware-only benches.
  /// One Model::tick call: once a stepped cycle moves no FIFO word and
  /// leaves the model settled, the rest of the call repeats it and costs
  /// O(1), with every counter, statistic and trace event as ticking one
  /// cycle per call leaves them. Without a model this returns at once and
  /// changes nothing.
  void tick_hardware(Cycle cycles);

  /// One precise lock-step unit for a debugger: step the processor once
  /// and bring the hardware model to cycle parity, exactly as run()'s
  /// precise path does, stall streak included. Interleaving debug_step()
  /// with run() keeps every statistic identical to an uninterrupted run.
  iss::StepResult debug_step();

  /// The core's stall streak, counted across calls.
  [[nodiscard]] const StallStreak& stall_streak() const noexcept {
    return streak_;
  }

  [[nodiscard]] CoSimStats stats() const;

  /// Diagnosis of the most recent StopReason::kDeadlock; empty until a
  /// deadlock has been detected. Cleared by reset() and load_state().
  [[nodiscard]] const std::optional<DeadlockDiagnosis>& deadlock_diagnosis()
      const noexcept {
    return last_deadlock_;
  }
  /// Forget the diagnosis alone.
  void clear_deadlock_diagnosis() noexcept { last_deadlock_.reset(); }

  /// Record a deadlock of this core, blocked for its stall streak:
  /// diagnose it, count and emit it and return StopReason::kDeadlock.
  /// run() and ManyCoreEngine::declare_deadlock() call this.
  StopReason declare_deadlock();

  /// Stall streak at which run() stops with kDeadlock (ManyCoreEngine
  /// sets it for its cores).
  void set_deadlock_threshold(Cycle threshold) noexcept {
    deadlock_threshold_ = threshold;
  }

  /// Enable the quiescence optimization the paper describes in Section
  /// III-A ("whenever there is data coming from the processor,
  /// simulation of these hardware designs is carried out"): once the FSL
  /// interface has been inactive for `drain_cycles` consecutive cycles —
  /// an upper bound on the peripheral's pipeline drain time, supplied by
  /// the application — further idle cycles are fast-forwarded without
  /// evaluating the hardware model. Cycle counts are unaffected: a
  /// drained synchronous pipeline with no input is a fixed point of the
  /// simulation. 0 disables the optimization (every cycle is stepped).
  void set_quiescence_window(Cycle drain_cycles) noexcept {
    quiescence_.window = drain_cycles;
  }

  /// Attach the observability bus (nullptr to detach). The engine
  /// reports quiescence fast-forward hops and deadlock detection, and
  /// keeps the bus's time cursor on the hardware clock while ticking
  /// the model (so bridge-driven FIFO events carry hardware-cycle
  /// timestamps).
  void set_trace_bus(obs::TraceBus* bus) noexcept { trace_bus_ = bus; }

  /// Attach the metrics counters (nullptr, the default, to detach):
  /// fast-forwarded hardware cycles and declared deadlocks.
  void set_metrics(obs::EngineCounters* counters) noexcept {
    metrics_ = counters;
  }

  /// Checkpoint the engine's own counters, its stall streak and the
  /// bridge (the CPU, hardware model and hub are serialized by the
  /// owner — see DESIGN.md §11). Every core writes it, with a model or
  /// without. The deadlock diagnosis describes a finished stop and is
  /// not state: a restore forgets it. Deadlock/quiescence thresholds are
  /// configuration and are not captured.
  void save_state(ckpt::Writer& writer) const;
  [[nodiscard]] bool load_state(ckpt::Reader& reader);

 private:
  /// run() with the FslSync hook installed.
  StopReason run_cpu(Cycle max_cycles);
  /// Tick the hardware by the processor cycles since synced_, up to
  /// `cycle`: the FslSync hook and the end of a batch.
  void sync_to(Cycle cycle);

  iss::Processor& cpu_;
  sysgen::Model* hardware_;
  FslBridge bridge_;
  Cycle hw_cycles_ = 0;
  /// The processor cycle the hardware has been ticked to during the
  /// current batch.
  Cycle synced_ = 0;
  Cycle deadlock_threshold_ = kDefaultDeadlockThreshold;
  StallStreak streak_;
  sysgen::Quiescence quiescence_;
  Cycle skipped_cycles_ = 0;
  obs::TraceBus* trace_bus_ = nullptr;
  obs::EngineCounters* metrics_ = nullptr;
  std::optional<DeadlockDiagnosis> last_deadlock_;
};

}  // namespace mbcosim::core
