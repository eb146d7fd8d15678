// SimSystem: the single-entry facade over the high-level co-simulation
// environment. The unit of construction is a declarative machine
// description (machine::MachineDesc): one or more soft processors, the
// peripherals on their FSL channels, and the cross-core FSL links. One
// SimSystem owns everything the described machine needs — per core the
// assembled program, the LMB BRAM, the FSL hub, the cycle-accurate
// processor, the sysgen hardware model and the lock-step CoSimEngine;
// and one core::ManyCoreEngine that runs the cores, in deterministic
// parallel quanta on a multi-core machine and in one CoSimEngine::run
// call on a one-core machine:
//
//   auto desc = machine::MachineDesc::from_file("machines/farm.json");
//   auto built = sim::SimSystem::Builder()
//                    .machine(std::move(desc).value())
//                    .workers(4)                      // host threads
//                    .build();                        // Expected<SimSystem>
//   sim::SimSystem system = std::move(built).value();
//   system.run();
//
// A single-core design is MachineDesc::single_core(source), with its
// peripheral (if any) declared by type and resolved through the
// PeripheralRegistry, whose factory returns the model and its
// core::FslPort list (HardwareBundle). A pure-software design is the
// same machine with no peripheral: its core runs through the same
// CoSimEngine loop, whose hardware side is then empty and free.
//
// Construction problems (missing program, assembly errors, FSL ports
// that FslBridge::bind rejects, invalid machine topologies) come back
// through the Expected error channel instead of throwing from deep
// inside component constructors, so a design-space sweep can report a
// broken configuration point and keep going. Machine-description
// problems keep their stable "[code]" prefixes (machine::kDescErrorCodes).
//
// Thread-safety contract: a SimSystem is self-contained. Different
// SimSystem instances share no mutable state, so any number of them may
// run concurrently on different threads (this is what sim::Sweep does);
// one instance must never be touched from two threads at once. A
// multi-core run uses worker threads *internally*, but every simulated
// component is only ever touched by one thread between barriers, and
// results are byte-identical at every worker count.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "bus/opb_bus.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "core/cosim_engine.hpp"
#include "core/manycore.hpp"
#include "energy/energy_model.hpp"
#include "estimate/estimator.hpp"
#include "fault/fault_plan.hpp"
#include "fsl/fsl_hub.hpp"
#include "iss/processor.hpp"
#include "machine/machine_desc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_bus.hpp"
#include "rsp/server.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::fault {
class Injector;
}  // namespace mbcosim::fault

namespace mbcosim::sim {

/// A hardware model together with its FSL ports — what a
/// PeripheralRegistry factory hands to the builder, one fresh model per
/// built system. The builder binds each port onto the core's bridge.
struct HardwareBundle {
  std::unique_ptr<sysgen::Model> model;
  std::vector<core::FslPort> ports;
  /// Quiescence fast-forward window this peripheral is safe with (an
  /// upper bound on its pipeline drain time); 0 = never fast-forward.
  Cycle quiescence = 0;
};

/// Embedding hooks for SimSystem::serve_gdb_on: a listener whose
/// late-arriving clients get a framed "E.srv-busy" rejection while the
/// session is live, and an external cancellation flag that ends the
/// session at the next packet/resume-quantum boundary. Both optional,
/// both must outlive the call.
struct GdbServeHooks {
  rsp::TcpListener* busy_listener = nullptr;
  const std::atomic<bool>* cancel = nullptr;
};

class SimSystem {
 public:
  class Builder;

  SimSystem(SimSystem&&) noexcept;
  SimSystem& operator=(SimSystem&&) noexcept;
  SimSystem(const SimSystem&) = delete;
  SimSystem& operator=(const SimSystem&) = delete;
  ~SimSystem();

  /// Run until the software halts, an architectural error occurs, the
  /// machine deadlocks, or the cycle budget runs out. The system is
  /// reset at build time; call reset() before re-running.
  core::StopReason run(Cycle max_cycles = Cycle{1} << 36);

  /// Reset processor, hardware model and FIFOs back to the program entry.
  void reset();

  /// Combined statistics (hardware/bridge fields are zero for a
  /// software-only system).
  [[nodiscard]] core::CoSimStats stats() const;

  /// Superblock-tier counters summed over every core (all zero at
  /// iss::ExecTier::kPrecise or while the precise fallback is active);
  /// host work that depends on where a run was cut, so on no page.
  [[nodiscard]] iss::DbtStats dbt_stats() const;

  /// Host wall-clock seconds spent inside the most recent run() loop —
  /// the quantity Table I's simulation-time comparison uses.
  [[nodiscard]] double run_wall_seconds() const noexcept;

  /// Rapid resource estimate of the whole design (paper Section III-C):
  /// processor + peripheral + FSL links + program BRAMs.
  [[nodiscard]] estimate::ResourceReport resource_report() const;

  /// Rapid energy estimate of the finished run (paper Section V).
  [[nodiscard]] energy::EnergyReport energy_report() const;
  /// Same, reusing an already-computed implemented-resource vector.
  [[nodiscard]] energy::EnergyReport energy_report(
      const ResourceVec& implemented) const;

  /// Aggregated observability metrics of the run so far. Empty unless
  /// the system was built with Builder::metrics().
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

  /// Core `index`'s metrics counters, or nullptr when the system was
  /// built without Builder::metrics(). Components count into these
  /// directly; metrics_snapshot() renders them.
  [[nodiscard]] obs::MetricsRegistry* metrics_registry(std::size_t index = 0);

  /// The observability bus every component of this system reports into.
  /// Carries no sinks (and costs one branch per would-be event) unless
  /// the builder attached some.
  [[nodiscard]] obs::TraceBus& trace_bus() noexcept;

  // -- component access ------------------------------------------------
  // The no-index accessors refer to core 0 — for a single-core machine
  // that is the whole system.
  [[nodiscard]] iss::Processor& cpu() noexcept;
  [[nodiscard]] const iss::Processor& cpu() const noexcept;
  [[nodiscard]] iss::LmbMemory& memory() noexcept;
  [[nodiscard]] const iss::LmbMemory& memory() const noexcept;
  [[nodiscard]] const assembler::Program& program() const noexcept;
  /// Hardware model; nullptr for a software-only system.
  [[nodiscard]] sysgen::Model* hardware() noexcept;
  [[nodiscard]] const sysgen::Model* hardware() const noexcept;

  // -- machine (multi-core) access -------------------------------------
  /// Number of cores in the machine.
  [[nodiscard]] std::size_t core_count() const noexcept;
  /// Name of core `index` as declared in the machine description.
  [[nodiscard]] const std::string& core_name(std::size_t index) const;
  /// Per-core accessors (index must be < core_count()).
  [[nodiscard]] iss::Processor& cpu(std::size_t index);
  [[nodiscard]] const assembler::Program& program(std::size_t index) const;
  /// Statistics of one core alone (stats() aggregates the machine).
  [[nodiscard]] core::CoSimStats core_stats(std::size_t index) const;
  /// Observability bus of core `index` (trace_bus() is core 0's).
  [[nodiscard]] obs::TraceBus& trace_bus(std::size_t index);
  /// The machine-level engine that runs every core; never null. A
  /// one-core machine's engine runs no rounds.
  [[nodiscard]] core::ManyCoreEngine* machine_engine() noexcept;
  /// Core a terminal StopReason of the last run() refers to — the
  /// culprit for kIllegal/kDeadlock, the last core to halt for kHalted;
  /// core::MachineStop::kNoCore when no core is attributable. Always 0
  /// on a one-core machine.
  [[nodiscard]] std::size_t stop_core() const noexcept;
  /// The machine description this system was built from.
  [[nodiscard]] const machine::MachineDesc& machine_desc() const noexcept;
  /// The `word_index`-th word of the array at symbol `name` in core
  /// `index`'s program (throws SimError if undefined).
  [[nodiscard]] Word word_on(std::size_t index, const std::string& name,
                             u32 word_index = 0) const;

  // -- fault injection -------------------------------------------------
  /// Arm (or replace) a fault plan on the running system. Count-
  /// triggered faults install into the target component immediately;
  /// cycle/pc-triggered faults fire at the trigger point of the next
  /// run() — unless `immediate`, which fires them right now at the
  /// current stop (the RSP `monitor fault` semantics).
  [[nodiscard]] Status arm_fault(const fault::FaultPlan& plan,
                                 bool immediate = false);
  /// The armed injector, or nullptr when the system runs fault-free.
  [[nodiscard]] const fault::Injector* fault_injector() const noexcept;

  /// Diagnosis of the most recent StopReason::kDeadlock; empty until a
  /// deadlock has been detected.
  [[nodiscard]] std::optional<core::DeadlockDiagnosis> deadlock_diagnosis()
      const;

  /// First I/O failure reported by any attached trace sink (ok when
  /// none failed). Check after run() when the trace matters.
  [[nodiscard]] Status sink_status() const;

  // -- checkpoint / restore --------------------------------------------
  /// Serialize the full simulated machine into a sealed checkpoint image
  /// (ckpt on-disk format, DESIGN.md §11): every processor, memory, FSL
  /// FIFO, hardware model, OPB bus, lock-step engine and — multi-core —
  /// the machine engine's round progress. The image embeds a fingerprint
  /// of the machine description, so restoring into a differently-shaped
  /// system is rejected. Valid at any stopped point (between run()s,
  /// at a debugger stop, mid-machine-quantum after debug_step).
  [[nodiscard]] std::vector<unsigned char> snapshot() const;
  /// Restore a snapshot() image into this (identically-built) system.
  /// Failures come back with the stable "[code]" prefixes of
  /// ckpt::kCkptErrorCodes and leave the system in need of reset() —
  /// a partially-applied image is never silently run.
  [[nodiscard]] Status restore_image(const std::vector<unsigned char>& image);
  /// snapshot() straight to a file.
  [[nodiscard]] Status save_checkpoint(const std::string& path) const;
  /// restore_image() straight from a file.
  [[nodiscard]] Status restore(const std::string& path);
  /// Exact state of every per-core MetricsRegistry (empty blob when the
  /// system was built without Builder::metrics). A snapshot() image
  /// deliberately excludes observability state; session journals carry
  /// this blob next to the image so a recovered session's metrics page
  /// stays byte-identical to an uninterrupted run.
  [[nodiscard]] std::vector<unsigned char> metrics_state() const;
  /// Restore a metrics_state() blob; [ckpt-shape] when the blob was
  /// taken from a differently-shaped system, [ckpt-truncated] when it
  /// ends early.
  [[nodiscard]] Status restore_metrics_state(
      const std::vector<unsigned char>& state);

  // -- remote debug ----------------------------------------------------
  /// Serve one GDB Remote Serial Protocol session on 127.0.0.1:`port`
  /// (0 picks an ephemeral port). Blocks until the client detaches,
  /// kills the session or disconnects; continue/step advance the full
  /// co-simulation engine cycle-accurately. `on_listen`, if set, is
  /// called with the bound port before accepting — this is how a caller
  /// learns an ephemeral port (and when it is safe to connect).
  [[nodiscard]] Expected<rsp::SessionEnd> serve_gdb(
      u16 port, std::function<void(u16)> on_listen = {});

  /// Serve one RSP session on an already-connected transport — the
  /// accept-free core of serve_gdb(), for embeddings that own the
  /// listener themselves (the simulation server's per-session debug
  /// ports, loopback tests). Blocks until the session ends.
  [[nodiscard]] Expected<rsp::SessionEnd> serve_gdb_on(
      rsp::Transport& transport, const GdbServeHooks& hooks = {});

  /// Address of a program symbol (throws SimError if undefined).
  [[nodiscard]] Addr symbol(const std::string& name) const;
  /// The `index`-th word of the array at program symbol `name`.
  [[nodiscard]] Word word(const std::string& name, u32 index = 0) const;

 private:
  struct State;
  explicit SimSystem(std::unique_ptr<State> state);

  /// Fault-free dispatch: the machine engine, or core 0's CoSimEngine.
  core::StopReason run_unfaulted(Cycle max_cycles);
  /// Run-to-trigger, fire the injection, continue — the orchestration
  /// of a cycle/pc point-triggered fault plan.
  core::StopReason run_faulted(Cycle max_cycles);

  std::unique_ptr<State> state_;
};

/// The `monitor stats` text of a system: "name value" lines of the
/// aggregate CoSimStats, plus per-core lines ("core.<name>.cycles N" ...)
/// on multi-core machines, each line newline-terminated. GET
/// /sessions/N/stats serves the same text.
[[nodiscard]] std::string stats_text(const SimSystem& system);

/// Builder for SimSystem. Every setter returns *this for chaining;
/// build() consumes the builder and reports all configuration problems
/// through Expected instead of throwing.
class SimSystem::Builder {
 public:
  /// Build from a declarative machine description (required). Core
  /// programs, ISA options, memory sizes, execution tiers, FIFO depth,
  /// peripherals (via the PeripheralRegistry) and cross-core links all
  /// come from the description.
  Builder& machine(machine::MachineDesc desc);
  /// Host threads that advance a multi-core machine's rounds, the
  /// thread calling run() included (0 = one per hardware thread;
  /// ignored for single-core machines). Results are identical at every
  /// worker count.
  Builder& workers(unsigned count);
  /// Core serve_gdb() attaches the debugger to (default 0).
  Builder& gdb_core(std::size_t index);

  /// Consecutive blocked cycles with no FIFO movement, on every live
  /// core, before run() reports StopReason::kDeadlock.
  Builder& deadlock_threshold(Cycle threshold);

  /// Attach a memory-mapped OPB bus (with its peripherals already
  /// mapped) to core 0; its data accesses outside the LMB memory decode
  /// on it.
  Builder& opb(std::unique_ptr<bus::OpbBus> bus);

  /// Arm a fault plan: the fault fires during run() at the plan's
  /// trigger. build() fails on an inconsistent plan (validate_plan).
  /// Without this call the system is bit-identical to a fault-free
  /// build — no hook is armed anywhere.
  Builder& fault(const fault::FaultPlan& plan);

  // -- observability ---------------------------------------------------
  /// Stream every simulation event as one JSON object per line into
  /// `path`. build() fails if the file cannot be opened.
  Builder& trace(std::string path);
  /// Dump a GTKWave-compatible value-change waveform of the run into
  /// `path`. build() fails if the file cannot be opened.
  Builder& vcd(std::string path);
  /// Count instructions, FIFO handshakes, OPB transactions, engine and
  /// fault events per core, readable after (or during) the run via
  /// SimSystem::metrics_snapshot(). The counters are not a trace sink:
  /// every execution tier keeps running with them.
  Builder& metrics();
  /// Attach an arbitrary extra sink (e.g. a JsonlSink over a string
  /// stream in a test).
  Builder& sink(std::unique_ptr<obs::TraceSink> sink);

  /// Assemble, construct and wire everything; leaves the system reset at
  /// the program entry. All errors come back as Expected failures.
  [[nodiscard]] Expected<SimSystem> build();

 private:
  std::optional<machine::MachineDesc> machine_;
  unsigned workers_ = 0;
  std::size_t gdb_core_ = 0;
  Cycle deadlock_threshold_ = core::kDefaultDeadlockThreshold;
  std::unique_ptr<bus::OpbBus> opb_;
  std::optional<fault::FaultPlan> fault_plan_;
  std::optional<std::string> trace_path_;
  std::optional<std::string> vcd_path_;
  bool metrics_ = false;
  std::vector<std::unique_ptr<obs::TraceSink>> extra_sinks_;
};

}  // namespace mbcosim::sim
