#include "sim/sim_system.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "asm/assembler.hpp"
#include "common/stopwatch.hpp"
#include "fault/injector.hpp"
#include "isa/isa.hpp"
#include "iss/memory.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/vcd_sink.hpp"
#include "rsp/cosim_target.hpp"
#include "rsp/transport.hpp"
#include "sim/peripheral_registry.hpp"
#include "sim/sim_state.hpp"

namespace mbcosim::sim {

namespace {

/// "trace.jsonl" + "cpu1" -> "trace.cpu1.jsonl"; no extension appends.
std::string per_core_path(const std::string& path, const std::string& name) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + "." + name;
  }
  return path.substr(0, dot) + "." + name + path.substr(dot);
}

/// Whether `plan` may be armed on a machine of `core_count` cores: it
/// passes fault::validate_plan and targets an existing core.
Status admit_fault_plan(const fault::FaultPlan& plan,
                        std::size_t core_count) {
  if (Status valid = fault::validate_plan(plan); !valid.ok) return valid;
  if (plan.core >= core_count) {
    return Status::failure("fault plan targets core " +
                           std::to_string(plan.core) +
                           " but the machine has " +
                           std::to_string(core_count) + " core(s)");
  }
  return {};
}

}  // namespace

SimSystem::SimSystem(std::unique_ptr<State> state) : state_(std::move(state)) {}
SimSystem::SimSystem(SimSystem&&) noexcept = default;
SimSystem& SimSystem::operator=(SimSystem&&) noexcept = default;
SimSystem::~SimSystem() = default;

void SimSystem::reset() {
  for (auto& core : state_->cores) {
    core->engine.reset(core->program.entry());
    // Return every component to fault-free operation, then re-arm the
    // configured plan with fresh one-shot state for the new run.
    core->hub.clear_faults();
    if (core->opb) core->opb->clear_fault();
  }
  state_->machine_engine.reset_progress();
  state_->stop_core = 0;
  if (state_->injector) {
    State::Core& target = *state_->cores[state_->fault_core];
    state_->injector =
        std::make_unique<fault::Injector>(state_->injector->plan());
    state_->injector->arm(&target.hub, target.opb.get());
  }
}

core::StopReason SimSystem::run_faulted(Cycle max_cycles) {
  fault::Injector& injector = *state_->injector;
  const fault::FaultPlan& plan = injector.plan();
  State::Core& core = *state_->cores[state_->fault_core];
  if (plan.trigger == fault::TriggerKind::kCycle) {
    // Run to the trigger cycle, inject, continue. If the software ends
    // before the trigger the fault never fires (masked by timing).
    const Cycle target = std::min<Cycle>(plan.trigger_value, max_cycles);
    const core::StopReason before = run_unfaulted(target);
    if (before != core::StopReason::kCycleLimit) return before;
    injector.fire(core.cpu, &core.hub, core.opb.get(), &core.trace_bus,
                  core.fault_metrics());
    return run_unfaulted(max_cycles);
  }
  // PC trigger: the trigger PC is a breakpoint of the core's debugger,
  // whose machine steps run the core in precise lock step up to it and
  // hold every round barrier a free run holds. A blocked or runaway
  // program is bounded by the deadlock threshold / cycle budget, like
  // any other run.
  rsp::CoSimTarget debugger(state_->machine_engine, state_->fault_core);
  debugger.add_breakpoint(static_cast<Addr>(plan.trigger_value));
  const Cycle now = core.cpu.cycle();
  const rsp::StopInfo stop =
      debugger.resume(max_cycles > now ? max_cycles - now : 0, false);
  switch (stop.kind) {
    case rsp::StopInfo::Kind::kBreakpoint:
      injector.fire(core.cpu, &core.hub, core.opb.get(), &core.trace_bus,
                  core.fault_metrics());
      return run_unfaulted(max_cycles);
    case rsp::StopInfo::Kind::kHalted: return core::StopReason::kHalted;
    case rsp::StopInfo::Kind::kIllegal: return core::StopReason::kIllegal;
    case rsp::StopInfo::Kind::kStalled:
      return state_->machine_engine.declare_deadlock().reason;
    case rsp::StopInfo::Kind::kStep:
    case rsp::StopInfo::Kind::kBudget: break;
  }
  return core::StopReason::kCycleLimit;
}

core::StopReason SimSystem::run_unfaulted(Cycle max_cycles) {
  const core::MachineStop stop = state_->machine_engine.run(max_cycles);
  state_->stop_core = stop.core;
  return stop.reason;
}

core::StopReason SimSystem::run(Cycle max_cycles) {
  Stopwatch watch;
  const bool pending_point_fault = state_->injector != nullptr &&
                                   state_->injector->needs_point_trigger() &&
                                   !state_->injector->armed_or_fired();
  core::StopReason reason;
  if (pending_point_fault) {
    reason = run_faulted(max_cycles);
  } else {
    reason = run_unfaulted(max_cycles);
  }
  state_->last_run_wall_seconds = watch.elapsed_seconds();
  // Make every attached sink durable after each run: the JSONL/VCD files
  // are complete on disk even if the caller never destroys the system.
  // An open stall run stays open: the next call continues it.
  for (auto& core : state_->cores) core->trace_bus.flush();
  return reason;
}

core::CoSimStats SimSystem::stats() const {
  return state_->machine_engine.aggregate_stats();
}

core::CoSimStats SimSystem::core_stats(std::size_t index) const {
  return state_->cores[index]->engine.stats();
}

obs::TraceBus& SimSystem::trace_bus(std::size_t index) {
  return state_->cores[index]->trace_bus;
}

double SimSystem::run_wall_seconds() const noexcept {
  return state_->last_run_wall_seconds;
}

estimate::ResourceReport SimSystem::resource_report() const {
  // One processor system per core. On a multi-core machine the parts
  // are prefixed with the core name so the report reads like the
  // floorplan.
  const bool multi = state_->cores.size() > 1;
  estimate::ResourceReport total;
  for (const auto& core : state_->cores) {
    estimate::ResourceReport report =
        estimate::estimate_system(State::describe(*core));
    for (estimate::ResourcePart& part : report.parts) {
      if (multi) part.name = core->name + "." + part.name;
      total.parts.push_back(std::move(part));
    }
    total.estimated += report.estimated;
    total.implemented += report.implemented;
  }
  return total;
}

energy::EnergyReport SimSystem::energy_report() const {
  // Each core's dynamic + static share, summed; the cores tick one
  // shared clock, so the covered cycle count is the max.
  energy::EnergyReport total;
  for (const auto& core : state_->cores) {
    const estimate::ResourceReport report =
        estimate::estimate_system(State::describe(*core));
    const energy::EnergyReport slice = energy::estimate_energy(
        core->cpu.stats(), core->hardware.get(),
        core->engine.stats().hw_cycles_stepped, report.implemented);
    total.processor_nj += slice.processor_nj;
    total.peripheral_nj += slice.peripheral_nj;
    total.static_nj += slice.static_nj;
    total.cycles = std::max(total.cycles, slice.cycles);
  }
  return total;
}

energy::EnergyReport SimSystem::energy_report(
    const ResourceVec& implemented) const {
  // A whole-machine resource vector cannot be split back per core;
  // recompute from scratch instead of misattributing the static share.
  if (state_->cores.size() > 1) return energy_report();
  const State::Core& core = state_->c0();
  return energy::estimate_energy(core.cpu.stats(), core.hardware.get(),
                                 stats().hw_cycles_stepped, implemented);
}

iss::DbtStats SimSystem::dbt_stats() const {
  iss::DbtStats total;
  for (const auto& core : state_->cores) {
    const iss::DbtStats& dbt = core->cpu.dbt_stats();
    total.blocks_translated += dbt.blocks_translated;
    total.block_dispatches += dbt.block_dispatches;
    total.smc_retirements += dbt.smc_retirements;
    total.dbt_instructions += dbt.dbt_instructions;
  }
  return total;
}

obs::MetricsSnapshot SimSystem::metrics_snapshot() const {
  // Merge the per-core registries; on a multi-core machine each key is
  // prefixed with its core's name ("corename."), a lone core's is not.
  const bool multi = state_->cores.size() > 1;
  obs::MetricsSnapshot merged;
  for (const auto& core : state_->cores) {
    if (core->metrics == nullptr) continue;
    obs::MetricsSnapshot snapshot = core->metrics->snapshot();
    const std::string prefix = multi ? core->name + "." : std::string();
    for (auto& [key, value] : snapshot.counters) {
      merged.counters[prefix + key] = value;
    }
    for (auto& [key, histogram] : snapshot.histograms) {
      merged.histograms[prefix + key] = std::move(histogram);
    }
  }
  return merged;
}

obs::TraceBus& SimSystem::trace_bus() noexcept {
  return state_->c0().trace_bus;
}

obs::MetricsRegistry* SimSystem::metrics_registry(std::size_t index) {
  return state_->cores[index]->metrics.get();
}

iss::Processor& SimSystem::cpu() noexcept { return state_->c0().cpu; }
const iss::Processor& SimSystem::cpu() const noexcept {
  return state_->c0().cpu;
}
iss::LmbMemory& SimSystem::memory() noexcept { return state_->c0().memory; }
const iss::LmbMemory& SimSystem::memory() const noexcept {
  return state_->c0().memory;
}
const assembler::Program& SimSystem::program() const noexcept {
  return state_->c0().program;
}
sysgen::Model* SimSystem::hardware() noexcept {
  return state_->c0().hardware.get();
}
const sysgen::Model* SimSystem::hardware() const noexcept {
  return state_->c0().hardware.get();
}

std::size_t SimSystem::core_count() const noexcept {
  return state_->cores.size();
}

const std::string& SimSystem::core_name(std::size_t index) const {
  return state_->cores[index]->name;
}

iss::Processor& SimSystem::cpu(std::size_t index) {
  return state_->cores[index]->cpu;
}

const assembler::Program& SimSystem::program(std::size_t index) const {
  return state_->cores[index]->program;
}

core::ManyCoreEngine* SimSystem::machine_engine() noexcept {
  return &state_->machine_engine;
}

std::size_t SimSystem::stop_core() const noexcept { return state_->stop_core; }

const machine::MachineDesc& SimSystem::machine_desc() const noexcept {
  return state_->desc;
}

Word SimSystem::word_on(std::size_t index, const std::string& name,
                        u32 word_index) const {
  const State::Core& core = *state_->cores[index];
  return core.memory.read_word(core.program.symbol(name) + 4 * word_index);
}

Status SimSystem::arm_fault(const fault::FaultPlan& plan, bool immediate) {
  if (Status admitted = admit_fault_plan(plan, state_->cores.size());
      !admitted.ok) {
    return admitted;
  }
  // Replace any previous arming wholesale so re-arming is idempotent —
  // including a previous plan on a different core.
  for (auto& core : state_->cores) {
    core->hub.clear_faults();
    if (core->opb) core->opb->clear_fault();
  }
  state_->fault_core = plan.core;
  State::Core& target = *state_->cores[plan.core];
  state_->injector = std::make_unique<fault::Injector>(plan);
  state_->injector->arm(&target.hub, target.opb.get());
  if (immediate && state_->injector->needs_point_trigger()) {
    state_->injector->fire(target.cpu, &target.hub, target.opb.get(),
                           &target.trace_bus, target.fault_metrics());
  }
  return {};
}

const fault::Injector* SimSystem::fault_injector() const noexcept {
  return state_->injector.get();
}

std::optional<core::DeadlockDiagnosis> SimSystem::deadlock_diagnosis() const {
  return state_->machine_engine.deadlock_diagnosis();
}

Status SimSystem::sink_status() const {
  for (const auto& core : state_->cores) {
    if (Status status = core->trace_bus.status(); !status.ok) return status;
  }
  return {};
}

Expected<rsp::SessionEnd> SimSystem::serve_gdb(
    u16 port, std::function<void(u16)> on_listen) {
  using Failure = Expected<rsp::SessionEnd>;
  Expected<rsp::TcpListener> bound = rsp::TcpListener::listen(port);
  if (!bound) {
    return Failure::failure("SimSystem: gdb server: " + bound.error());
  }
  rsp::TcpListener listener = std::move(bound).value();
  if (on_listen) on_listen(listener.port());
  std::unique_ptr<rsp::Transport> transport = listener.accept();
  if (transport == nullptr) {
    return Failure::failure("SimSystem: gdb server accepted no client");
  }
  GdbServeHooks hooks;
  hooks.busy_listener = &listener;  // late arrivals get "E.srv-busy"
  return serve_gdb_on(*transport, hooks);
}

Expected<rsp::SessionEnd> SimSystem::serve_gdb_on(rsp::Transport& transport,
                                                  const GdbServeHooks& hooks) {
  // The debugger drives one core (Builder::gdb_core, default 0); each
  // of its steps advances the whole machine through
  // ManyCoreEngine::debug_step so cross-links stay live.
  rsp::CoSimTarget target(state_->machine_engine, state_->gdb_core);
  // System-level monitor verbs layered over the target's own verbs,
  // so `monitor metrics` / `monitor stats` work from a gdb prompt.
  target.set_monitor_extra([this](std::string_view line) -> std::string {
    if (line == "metrics") {
      const obs::MetricsSnapshot snapshot = metrics_snapshot();
      if (snapshot.empty()) {
        return "metrics: not enabled (build with Builder::metrics)";
      }
      return snapshot.to_string();
    }
    if (line == "fault") {
      const fault::Injector* injector = fault_injector();
      if (injector == nullptr) return "fault: none armed";
      std::string out = "fault: " + injector->plan().to_string();
      out += injector->armed_or_fired()
                 ? (injector->applied() ? "\nstate: " + injector->detail()
                                        : "\nstate: engaged, not applied")
                 : "\nstate: waiting for trigger";
      return out;
    }
    if (line.rfind("fault ", 0) == 0) {
      const Expected<fault::FaultPlan> parsed =
          fault::parse_plan(std::string(line.substr(6)));
      if (!parsed) return "fault: " + parsed.error();
      // From a debugger the system is stopped at the prompt: point
      // triggers fire right here; count triggers arm and fire later.
      if (const Status status = arm_fault(parsed.value(), true); !status.ok) {
        return "fault: " + status.message;
      }
      return "fault: " + fault_injector()->detail();
    }
    if (line.rfind("checkpoint ", 0) == 0) {
      const std::string path(line.substr(11));
      if (path.empty()) return "checkpoint: missing path";
      if (const Status saved = save_checkpoint(path); !saved.ok) {
        return "checkpoint: " + saved.message;
      }
      return "checkpoint: saved to " + path;
    }
    if (line.rfind("restore ", 0) == 0) {
      const std::string path(line.substr(8));
      if (path.empty()) return "restore: missing path";
      if (const Status restored = restore(path); !restored.ok) {
        return "restore: " + restored.message;
      }
      return "restore: restored from " + path;
    }
    if (line == "stats") return stats_text(*this);
    return {};
  });

  rsp::RspServer server(transport, target);
  server.set_busy_listener(hooks.busy_listener);
  server.set_cancel(hooks.cancel);
  const rsp::SessionEnd end = server.serve();
  // The client may have run the program to completion: make the trace
  // sinks durable exactly as run() does.
  for (auto& core : state_->cores) core->trace_bus.flush();
  return end;
}

Addr SimSystem::symbol(const std::string& name) const {
  return state_->c0().program.symbol(name);
}

Word SimSystem::word(const std::string& name, u32 index) const {
  return state_->c0().memory.read_word(symbol(name) + 4 * index);
}

std::string stats_text(const SimSystem& system) {
  const core::CoSimStats s = system.stats();
  std::string out;
  out += "cycles " + std::to_string(s.cycles);
  out += "\ninstructions " + std::to_string(s.instructions);
  out += "\nfsl_stall_cycles " + std::to_string(s.fsl_stall_cycles);
  out += "\nhw_cycles_stepped " + std::to_string(s.hw_cycles_stepped);
  out += "\nhw_cycles_skipped " + std::to_string(s.hw_cycles_skipped);
  out += "\nwords_to_hw " + std::to_string(s.bridge.words_to_hw);
  out += "\nwords_from_hw " + std::to_string(s.bridge.words_from_hw);
  if (system.core_count() > 1) {
    for (std::size_t i = 0; i < system.core_count(); ++i) {
      const core::CoSimStats cs = system.core_stats(i);
      const std::string& name = system.core_name(i);
      out += "\ncore." + name + ".cycles " + std::to_string(cs.cycles);
      out += "\ncore." + name + ".instructions " +
             std::to_string(cs.instructions);
      out += "\ncore." + name + ".fsl_stall_cycles " +
             std::to_string(cs.fsl_stall_cycles);
    }
  }
  out += "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Builder

SimSystem::Builder& SimSystem::Builder::machine(machine::MachineDesc desc) {
  machine_ = std::move(desc);
  return *this;
}

SimSystem::Builder& SimSystem::Builder::workers(unsigned count) {
  workers_ = count;
  return *this;
}

SimSystem::Builder& SimSystem::Builder::gdb_core(std::size_t index) {
  gdb_core_ = index;
  return *this;
}

SimSystem::Builder& SimSystem::Builder::deadlock_threshold(Cycle threshold) {
  deadlock_threshold_ = threshold;
  return *this;
}

SimSystem::Builder& SimSystem::Builder::opb(std::unique_ptr<bus::OpbBus> bus) {
  opb_ = std::move(bus);
  return *this;
}

SimSystem::Builder& SimSystem::Builder::fault(const fault::FaultPlan& plan) {
  fault_plan_ = plan;
  return *this;
}

SimSystem::Builder& SimSystem::Builder::trace(std::string path) {
  trace_path_ = std::move(path);
  return *this;
}

SimSystem::Builder& SimSystem::Builder::vcd(std::string path) {
  vcd_path_ = std::move(path);
  return *this;
}

SimSystem::Builder& SimSystem::Builder::metrics() {
  metrics_ = true;
  return *this;
}

SimSystem::Builder& SimSystem::Builder::sink(
    std::unique_ptr<obs::TraceSink> sink) {
  extra_sinks_.push_back(std::move(sink));
  return *this;
}

Expected<SimSystem> SimSystem::Builder::build() {
  using Failure = Expected<SimSystem>;

  if (!machine_) {
    return Failure::failure(
        "SimSystem: no machine was given (call Builder::machine)");
  }
  machine::MachineDesc desc = std::move(*machine_);
  if (const Status valid = desc.validate(); !valid.ok) {
    return Failure::failure("SimSystem: " + valid.message);
  }
  const bool multi = desc.cores.size() > 1;

  // 1. Programs, assembled up front so a broken one is reported first.
  std::vector<assembler::Program> programs;
  for (const machine::CoreDesc& core_desc : desc.cores) {
    std::string source = core_desc.program;
    if (source.empty()) {
      std::ifstream in(core_desc.program_file, std::ios::binary);
      if (!in) {
        return Failure::failure("SimSystem: [file-io] cannot read program "
                                "file '" + core_desc.program_file +
                                "' for core '" + core_desc.name + "'");
      }
      std::ostringstream text;
      text << in.rdbuf();
      source = text.str();
    }
    Expected<assembler::Program> assembled = assembler::assemble(source);
    if (!assembled) {
      return Failure::failure("SimSystem: core '" + core_desc.name +
                              "': program does not assemble: " +
                              assembled.error());
    }
    programs.push_back(std::move(assembled).value());
  }

  // 2. Peripherals, resolved against the registry: at most one hardware
  // model per core.
  std::vector<HardwareBundle> bundles(desc.cores.size());
  for (const machine::PeripheralDesc& peripheral : desc.peripherals) {
    HardwareBundle& bundle = bundles[desc.core_index(peripheral.core)];
    if (bundle.model != nullptr) {
      return Failure::failure("SimSystem: core '" + peripheral.core +
                              "' has more than one peripheral; a core "
                              "hosts at most one hardware model");
    }
    const PeripheralFactory* factory =
        PeripheralRegistry::instance().find(peripheral.type);
    if (factory == nullptr) {
      std::string known;
      for (const std::string& type : PeripheralRegistry::instance().types()) {
        known += known.empty() ? type : ", " + type;
      }
      return Failure::failure(
          "SimSystem: unknown peripheral type '" + peripheral.type +
          "' on core '" + peripheral.core + "'" +
          (known.empty() ? std::string(" (no types are registered; call "
                                       "apps::register_machine_peripherals)")
                         : " (registered: " + known + ")"));
    }
    try {
      bundle = (*factory)(peripheral);
    } catch (const std::exception& error) {
      return Failure::failure("SimSystem: peripheral '" + peripheral.type +
                              "' on core '" + peripheral.core +
                              "': " + error.what());
    }
    if (bundle.model == nullptr) {
      return Failure::failure("SimSystem: peripheral '" + peripheral.type +
                              "' on core '" + peripheral.core +
                              "' produced no model");
    }
  }

  // 3. The cores: processor, memory, FIFOs and a lock-step engine each.
  // A peripheral-free core of a multi-core machine gets an empty model
  // (zero blocks, zero resources), which its checkpoint image records.
  auto state = std::make_unique<State>(desc.quantum);
  for (std::size_t index = 0; index < desc.cores.size(); ++index) {
    const machine::CoreDesc& core_desc = desc.cores[index];
    HardwareBundle& bundle = bundles[index];
    if (multi && bundle.model == nullptr) {
      bundle.model = std::make_unique<sysgen::Model>(core_desc.name + ".none");
    }
    isa::CpuConfig config;
    config.has_barrel_shifter = core_desc.has_barrel_shifter;
    config.has_multiplier = core_desc.has_multiplier;
    config.has_divider = core_desc.has_divider;
    // The FSL channel names (and with them trace/VCD signal names) are
    // scoped by the core name only on real multi-core machines.
    const std::string hub_prefix =
        multi ? core_desc.name + "." : std::string();
    auto core = std::make_unique<State::Core>(
        core_desc.name, std::move(programs[index]), config,
        static_cast<u32>(core_desc.memory_bytes), desc.fifo_depth, hub_prefix,
        std::move(bundle.model));
    core->cpu.set_exec_tier(core_desc.exec_tier);
    for (const core::FslPort& port : bundle.ports) {
      if (Status status = core->engine.bridge().bind(port); !status.ok) {
        return Failure::failure("SimSystem: core '" + core_desc.name +
                                "': " + status.message);
      }
      // One FSL link per bound side, for the resource estimate.
      if (port.has_slave()) ++core->fsl_links;
      if (port.has_master()) ++core->fsl_links;
    }
    core->engine.set_quiescence_window(bundle.quiescence);
    core->engine.set_trace_bus(&core->trace_bus);
    state->cores.push_back(std::move(core));
  }
  State::Core& c0 = state->c0();

  // 4. Fault plan, debug-core and machine-wide option checks.
  if (fault_plan_) {
    if (const Status admitted =
            admit_fault_plan(*fault_plan_, desc.cores.size());
        !admitted.ok) {
      return Failure::failure("SimSystem: " + admitted.message);
    }
    state->fault_core = fault_plan_->core;
    state->injector = std::make_unique<fault::Injector>(*fault_plan_);
  }
  if (gdb_core_ >= desc.cores.size()) {
    return Failure::failure("SimSystem: gdb_core " +
                            std::to_string(gdb_core_) +
                            " is out of range for a machine with " +
                            std::to_string(desc.cores.size()) + " core(s)");
  }
  state->gdb_core = gdb_core_;
  if (opb_) {
    c0.opb = std::move(opb_);
    c0.cpu.attach_opb(c0.opb.get());
  }

  // 5. Observability sinks, one set per core. The buses live inside the
  // heap-allocated core blocks, so the pointers handed to the
  // components survive moves of the SimSystem itself. On multi-core
  // machines file sinks split per core ("t.jsonl" -> "t.cpu1.jsonl")
  // and every event is stamped with its core of origin.
  for (auto& core : state->cores) {
    if (trace_path_) {
      const std::string path =
          multi ? per_core_path(*trace_path_, core->name) : *trace_path_;
      auto sink = std::make_unique<obs::JsonlSink>(path);
      if (!sink->ok()) {
        return Failure::failure("SimSystem: cannot open trace file '" + path +
                                "'");
      }
      sink->set_disassembler(
          [](Addr, Word raw) { return isa::disassemble(raw); });
      core->trace_bus.add_sink(std::move(sink));
    }
    if (vcd_path_) {
      const std::string path =
          multi ? per_core_path(*vcd_path_, core->name) : *vcd_path_;
      auto sink = std::make_unique<obs::VcdSink>(path);
      if (!sink->ok()) {
        return Failure::failure("SimSystem: cannot open VCD file '" + path +
                                "'");
      }
      core->trace_bus.add_sink(std::move(sink));
    }
    if (metrics_) {
      // Typed counters, not a sink: the bus stays disabled, so every
      // execution tier keeps its fast path with metrics on.
      core->metrics = std::make_unique<obs::MetricsRegistry>();
      obs::MetricsRegistry& registry = *core->metrics;
      core->cpu.set_metrics(&registry.cpu);
      core->hub.set_metrics(registry);
      core->engine.set_metrics(&registry.engine);
      if (core->opb) core->opb->set_metrics(&registry.opb);
    }
    if (multi) core->trace_bus.set_origin(core->name.c_str());
    // Always wired (the bus without sinks costs one enabled() load per
    // would-be event), so sinks can also be attached after build() via
    // SimSystem::trace_bus().
    core->cpu.set_trace_bus(&core->trace_bus);
    core->hub.set_trace_bus(&core->trace_bus);
    if (core->opb) core->opb->set_trace_bus(&core->trace_bus);
  }
  for (auto& extra : extra_sinks_) {
    if (extra != nullptr) c0.trace_bus.add_sink(std::move(extra));
  }

  // 6. Load programs and stand up the machine engine.
  try {
    for (auto& core : state->cores) {
      core->memory.load_program(core->program);
    }
  } catch (const std::exception& error) {
    return Failure::failure(std::string("SimSystem: ") + error.what());
  }
  core::ManyCoreEngine& engine = state->machine_engine;
  engine.set_workers(workers_);
  engine.set_deadlock_threshold(deadlock_threshold_);
  for (auto& core : state->cores) {
    engine.add_core(core->name, core->cpu, core->engine, core->hub);
  }
  for (const machine::LinkDesc& link : desc.links) {
    const std::size_t from = desc.core_index(link.from);
    const std::size_t to = desc.core_index(link.to);
    state->cores[from]->fsl_links += 1;
    state->cores[to]->fsl_links += 1;
    if (Status status =
            engine.link(from, link.from_channel, to, link.to_channel);
        !status.ok) {
      return Failure::failure("SimSystem: " + status.message);
    }
  }
  state->desc = std::move(desc);

  SimSystem system(std::move(state));
  system.reset();
  return system;
}

}  // namespace mbcosim::sim
