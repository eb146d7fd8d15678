// SimSystem::State — the private heap block behind the facade, shared
// between sim_system.cpp (construction, running) and sim_checkpoint.cpp
// (whole-system snapshot/restore). Not part of the public surface: only
// those two translation units may include this header.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/sim_system.hpp"

namespace mbcosim::fault {
class Injector;
}  // namespace mbcosim::fault

namespace mbcosim::sim {

// One soft processor with everything private to it: program, memory,
// FIFOs, peripheral model, lock-step engine and observability bus. All
// per-core state lives in one heap block so SimSystem stays movable
// while the internal references (Processor -> LmbMemory/FslHub,
// CoSimEngine -> Processor/Model/FslHub, TraceEvent::origin ->
// Core::name) stay stable. A single-core machine is exactly one of these,
// run by the same ManyCoreEngine as any other machine.
struct SimSystem::State {
  struct Core {
    Core(std::string core_name, assembler::Program p,
         const isa::CpuConfig& config, u32 mem_bytes, std::size_t fifo_depth,
         const std::string& hub_prefix, std::unique_ptr<sysgen::Model> model)
        : name(std::move(core_name)),
          program(std::move(p)),
          cpu_config(config),
          memory(mem_bytes),
          hub(fifo_depth, hub_prefix),
          cpu(config, memory, &hub),
          hardware(std::move(model)),
          engine(cpu, hardware.get(), hub) {}

    std::string name;  ///< stable: TraceBus origin points at it
    assembler::Program program;
    isa::CpuConfig cpu_config;
    iss::LmbMemory memory;
    fsl::FslHub hub;
    iss::Processor cpu;
    /// Null for a peripheral-free single core; a multi-core machine
    /// gives such a core an empty "<name>.none" model instead.
    std::unique_ptr<sysgen::Model> hardware;
    core::CoSimEngine engine;
    std::unique_ptr<bus::OpbBus> opb;  ///< null unless Builder::opb
    unsigned fsl_links = 0;
    obs::TraceBus trace_bus;
    std::unique_ptr<obs::MetricsRegistry> metrics;  ///< null = metrics off

    /// The fault counters a fired injection reports to (null = off).
    [[nodiscard]] obs::FaultCounters* fault_metrics() noexcept {
      return metrics ? &metrics->fault : nullptr;
    }
    /// End of a run (or debug session): make the trace sinks durable and
    /// close the in-flight metrics stall run.
    void flush_observers() {
      trace_bus.flush();
      if (metrics) metrics->flush();
    }
  };

  /// The estimator view of one core (its slice of the whole design).
  static estimate::SystemDescription describe(const Core& core) {
    estimate::SystemDescription description;
    description.cpu = core.cpu_config;
    description.fsl_links_used = core.fsl_links;
    description.peripheral = core.hardware.get();
    description.program = &core.program;
    for (unsigned slot = 0; slot < isa::kNumCustomSlots; ++slot) {
      if (const iss::CustomInstruction* unit =
              core.cpu.custom_instruction(slot)) {
        description.custom_instructions.push_back(unit->resources);
      }
    }
    return description;
  }

  explicit State(Cycle quantum) : machine_engine(quantum) {}

  std::vector<std::unique_ptr<Core>> cores;  ///< machine order, never empty
  machine::MachineDesc desc;                 ///< what this machine is
  /// Runs every core, a lone one included (one CoSimEngine::run call).
  core::ManyCoreEngine machine_engine;
  std::size_t stop_core = 0;   ///< culprit of the last terminal stop
  std::size_t gdb_core = 0;    ///< Builder::gdb_core
  std::size_t fault_core = 0;  ///< FaultPlan::core of the armed plan
  Cycle deadlock_threshold = 100'000;
  double last_run_wall_seconds = 0.0;
  std::unique_ptr<fault::Injector> injector;  ///< null = fault-free

  [[nodiscard]] Core& c0() noexcept { return *cores.front(); }
  [[nodiscard]] const Core& c0() const noexcept { return *cores.front(); }
};

}  // namespace mbcosim::sim
