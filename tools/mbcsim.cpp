// mbcsim — command-line front end for the MB32 toolchain and simulators.
//
// Usage:
//   mbcsim [options] --machine machine.json     (declarative machine)
//   mbcsim [options] --cores N program.s        (replicated-core preset)
//   mbcsim [options] program.s                  (one core, no peripheral)
//
// Every run mode builds a machine description and runs it through
// sim::SimSystem; `mbcsim program.s` is the one-core machine
// MachineDesc::single_core(program.s) with the per-core flags applied.
//
// Machine options:
//   --machine FILE      build and run the machine described by FILE
//                       (MachineDesc JSON: cores, FSL links, peripherals;
//                       see examples/machines/). Mutually exclusive with
//                       a program.s argument and the per-core flags —
//                       those live in the machine file.
//   --cores N           preset: N identical cores running program.s
//                       (no cross-links), honoring the per-core flags
//   --workers N         host threads for the multi-core rounds (0 = one
//                       per hardware thread). Purely a host-performance
//                       knob: results are identical at every value.
//   --save-ckpt FILE    write a checkpoint of the machine after the run
//   --load-ckpt FILE    restore a checkpoint before running
//   --gdb-core N        core --gdb attaches the debugger to (default 0)
//
// Options:
//   --disasm            assemble and print the listing, do not run
//   --trace FILE        write a JSONL event log of the run to FILE
//                       ("-" = stdout on a one-core machine): instruction
//                       retire/stall/halt/trap events plus FSL FIFO traffic
//   --vcd FILE          write a GTKWave-compatible waveform to FILE
//                       (ISS runs use the observability VCD sink; --rtl
//                       runs sample the pc/halted nets directly)
//   --metrics           print aggregated event counters and histograms
//                       after the run, and each core's superblock-tier
//                       counters ("host.dbt.<name> N") on stderr
//   --regs              dump the register file after the run
//   --mem ADDR COUNT    dump COUNT memory words starting at ADDR
//   --max-cycles N      cycle budget (default 100M)
//   --no-multiplier     processor configuration knobs
//   --no-barrel-shifter
//   --divider
//   --exec-tier TIER    processor execution tier: precise (decode every
//                       step, the reference) or dbt (superblock threaded
//                       code, the default). Cycle counts are identical
//                       across tiers (DESIGN.md §12)
//   --rtl               run on the low-level RTL system instead of the
//                       ISS (one core, no peripheral; for timing
//                       cross-checks; not with --machine/--cores/--gdb/
//                       --fault)
//   --gdb PORT          do not run: serve one GDB Remote Serial Protocol
//                       session on 127.0.0.1:PORT (0 = ephemeral; the
//                       bound port is printed) and let the client drive
//                       execution (`gdb` + `target remote :PORT`)
//   --fault SPEC        inject one fault during the run, described by a
//                       comma-separated spec, e.g.
//                       "site=mem,mode=bitflip,cycle=1000,addr=0x120"
//                       (add "core=N" to target another machine core;
//                       see fault/fault_plan.hpp for the grammar)
//   --fault-seed S      seed deriving the fault's open parameters
//                       (which bit flips) when the spec leaves them unset
//
// Exit status: 0 = program halted normally, 2 = illegal instruction,
// 3 = cycle budget exhausted, 4 = deadlock, 1 = usage / assembly errors.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/machine_peripherals.hpp"
#include "asm/assembler.hpp"
#include "asm/objdump.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "iss/memory.hpp"
#include "machine/machine_desc.hpp"
#include "obs/jsonl_sink.hpp"
#include "rtl/vcd.hpp"
#include "rtlmodels/system_rtl.hpp"
#include "sim/sim_system.hpp"

using namespace mbcosim;

namespace {

struct Options {
  std::string source_path;
  std::string machine_path;
  std::size_t cores = 0;  ///< 0 = no --cores flag
  std::optional<unsigned> workers;
  std::optional<std::size_t> gdb_core;
  bool disasm_only = false;
  bool metrics = false;
  bool dump_regs = false;
  bool use_rtl = false;
  std::string trace_path;
  std::string vcd_path;
  std::vector<std::pair<Addr, u32>> memory_dumps;
  Cycle max_cycles = 100'000'000;
  iss::ExecTier exec_tier = iss::ExecTier::kDbt;
  std::optional<u16> gdb_port;
  std::string fault_spec;
  u64 fault_seed = 1;
  std::string save_ckpt_path;  ///< write a snapshot after the run stops
  std::string load_ckpt_path;  ///< restore a snapshot before running
  isa::CpuConfig cpu;
  /// First per-core configuration flag seen, for the --machine
  /// contradiction diagnostic.
  std::string per_core_flag;
};

void usage() {
  std::fprintf(stderr,
               "usage: mbcsim [--machine FILE | [--cores N] program.s]\n"
               "              [--workers N] [--gdb-core N]\n"
               "              [--disasm] [--trace FILE] [--vcd FILE]\n"
               "              [--metrics] [--regs] [--mem ADDR COUNT]\n"
               "              [--max-cycles N] [--no-multiplier]\n"
               "              [--no-barrel-shifter] [--divider] [--rtl]\n"
               "              [--exec-tier {precise,dbt}]\n"
               "              [--gdb PORT]\n"
               "              [--fault SPEC] [--fault-seed S]\n"
               "              [--save-ckpt FILE] [--load-ckpt FILE]\n");
}

bool parse_u64(const char* text, u64& out) {
  std::string_view body = text;
  int base = 10;
  if (body.size() > 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
    base = 16;
    body.remove_prefix(2);
  }
  const auto* end = body.data() + body.size();
  const auto result = std::from_chars(body.data(), end, out, base);
  return result.ec == std::errc{} && result.ptr == end;
}

/// The value of a flag that takes one; null (with a diagnostic) when the
/// command line ends before it.
const char* flag_value(int argc, char** argv, int& i, const std::string& flag) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "option %s requires an argument\n", flag.c_str());
    return nullptr;
  }
  return argv[++i];
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--disasm") {
      options.disasm_only = true;
    } else if (arg == "--machine") {
      const char* value = flag_value(argc, argv, i, arg);
      if (value == nullptr) return false;
      options.machine_path = value;
    } else if (arg == "--cores") {
      const char* value = flag_value(argc, argv, i, arg);
      u64 parsed = 0;
      if (value == nullptr || !parse_u64(value, parsed) || parsed == 0) {
        if (value != nullptr) {
          std::fprintf(stderr, "bad --cores value: %s\n", value);
        }
        return false;
      }
      options.cores = static_cast<std::size_t>(parsed);
    } else if (arg == "--workers") {
      const char* value = flag_value(argc, argv, i, arg);
      u64 parsed = 0;
      if (value == nullptr || !parse_u64(value, parsed) || parsed > 1024) {
        if (value != nullptr) {
          std::fprintf(stderr, "bad --workers value: %s\n", value);
        }
        return false;
      }
      options.workers = static_cast<unsigned>(parsed);
    } else if (arg == "--gdb-core") {
      const char* value = flag_value(argc, argv, i, arg);
      u64 parsed = 0;
      if (value == nullptr || !parse_u64(value, parsed)) {
        if (value != nullptr) {
          std::fprintf(stderr, "bad --gdb-core value: %s\n", value);
        }
        return false;
      }
      options.gdb_core = static_cast<std::size_t>(parsed);
    } else if (arg == "--trace") {
      const char* value = flag_value(argc, argv, i, arg);
      if (value == nullptr) return false;
      options.trace_path = value;
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg == "--regs") {
      options.dump_regs = true;
    } else if (arg == "--rtl") {
      options.use_rtl = true;
    } else if (arg == "--no-multiplier") {
      options.cpu.has_multiplier = false;
      if (options.per_core_flag.empty()) options.per_core_flag = arg;
    } else if (arg == "--no-barrel-shifter") {
      options.cpu.has_barrel_shifter = false;
      if (options.per_core_flag.empty()) options.per_core_flag = arg;
    } else if (arg == "--divider") {
      options.cpu.has_divider = true;
      if (options.per_core_flag.empty()) options.per_core_flag = arg;
    } else if (arg == "--exec-tier") {
      const char* value = flag_value(argc, argv, i, arg);
      if (value == nullptr) return false;
      const auto tier = iss::parse_exec_tier(value);
      if (!tier) {
        std::fprintf(stderr,
                     "bad --exec-tier value: %s (expected precise or "
                     "dbt)\n",
                     value);
        return false;
      }
      options.exec_tier = *tier;
      if (options.per_core_flag.empty()) options.per_core_flag = arg;
    } else if (arg == "--vcd") {
      const char* value = flag_value(argc, argv, i, arg);
      if (value == nullptr) return false;
      options.vcd_path = value;
    } else if (arg == "--max-cycles") {
      const char* value = flag_value(argc, argv, i, arg);
      u64 parsed = 0;
      if (value == nullptr || !parse_u64(value, parsed)) {
        if (value != nullptr) {
          std::fprintf(stderr, "bad --max-cycles value: %s\n", value);
        }
        return false;
      }
      options.max_cycles = parsed;
    } else if (arg == "--gdb") {
      const char* value = flag_value(argc, argv, i, arg);
      u64 port = 0;
      if (value == nullptr || !parse_u64(value, port) || port > 65535) {
        if (value != nullptr) {
          std::fprintf(stderr, "bad --gdb port: %s\n", value);
        }
        return false;
      }
      options.gdb_port = static_cast<u16>(port);
    } else if (arg == "--fault") {
      const char* value = flag_value(argc, argv, i, arg);
      if (value == nullptr) return false;
      options.fault_spec = value;
    } else if (arg == "--fault-seed") {
      const char* value = flag_value(argc, argv, i, arg);
      u64 parsed = 0;
      if (value == nullptr || !parse_u64(value, parsed)) {
        if (value != nullptr) {
          std::fprintf(stderr, "bad --fault-seed value: %s\n", value);
        }
        return false;
      }
      options.fault_seed = parsed;
    } else if (arg == "--save-ckpt") {
      const char* value = flag_value(argc, argv, i, arg);
      if (value == nullptr) return false;
      options.save_ckpt_path = value;
    } else if (arg == "--load-ckpt") {
      const char* value = flag_value(argc, argv, i, arg);
      if (value == nullptr) return false;
      options.load_ckpt_path = value;
    } else if (arg == "--mem") {
      const char* addr_text = flag_value(argc, argv, i, arg);
      const char* count_text =
          addr_text == nullptr ? nullptr : flag_value(argc, argv, i, arg);
      u64 addr = 0;
      u64 count = 0;
      if (count_text == nullptr || !parse_u64(addr_text, addr) ||
          !parse_u64(count_text, count)) {
        if (count_text != nullptr) {
          std::fprintf(stderr, "bad --mem arguments: %s %s\n", addr_text,
                       count_text);
        }
        return false;
      }
      options.memory_dumps.emplace_back(static_cast<Addr>(addr),
                                        static_cast<u32>(count));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    } else if (options.source_path.empty()) {
      options.source_path = arg;
    } else {
      std::fprintf(stderr, "unexpected extra argument: %s\n", arg.c_str());
      return false;
    }
  }
  // Mode resolution + contradiction diagnostics: the machine file is
  // the single source of truth for everything per-core, so mixing it
  // with the per-core flags is rejected, not merged.
  const bool machine_mode = !options.machine_path.empty() || options.cores > 0;
  if (!options.machine_path.empty()) {
    if (!options.source_path.empty()) {
      std::fprintf(stderr,
                   "--machine and a program.s argument are mutually "
                   "exclusive: core programs come from the machine file\n");
      return false;
    }
    if (options.cores > 0) {
      std::fprintf(stderr,
                   "--machine and --cores are mutually exclusive: the "
                   "machine file fixes the core count\n");
      return false;
    }
    if (!options.per_core_flag.empty()) {
      std::fprintf(stderr,
                   "--machine and %s are mutually exclusive: per-core "
                   "options come from the machine file\n",
                   options.per_core_flag.c_str());
      return false;
    }
    if (options.disasm_only) {
      std::fprintf(stderr, "--disasm takes a program.s, not --machine\n");
      return false;
    }
  } else if (options.source_path.empty()) {
    std::fprintf(stderr, "no program file given\n");
    return false;
  }
  if (options.use_rtl &&
      (machine_mode || options.gdb_port || !options.fault_spec.empty())) {
    std::fprintf(stderr,
                 "--rtl runs one RTL core alone (no --machine, --cores, "
                 "--gdb or --fault)\n");
    return false;
  }
  if (options.gdb_core && !options.gdb_port) {
    std::fprintf(stderr, "--gdb-core requires --gdb PORT\n");
    return false;
  }
  return true;
}

void dump_memory(const Options& options, iss::LmbMemory& memory) {
  for (const auto& [addr, count] : options.memory_dumps) {
    for (u32 i = 0; i < count; ++i) {
      const Addr a = addr + 4 * i;
      if (!memory.contains(a, 4)) {
        std::printf("  0x%08x: <out of range>\n", a);
        break;
      }
      std::printf("  0x%08x: 0x%08x  (%d)\n", a, memory.read_word(a),
                  static_cast<i32>(memory.read_word(a)));
    }
  }
}

int exit_code(core::StopReason reason) {
  switch (reason) {
    case core::StopReason::kHalted: return 0;
    case core::StopReason::kIllegal: return 2;
    case core::StopReason::kCycleLimit: return 3;
    case core::StopReason::kDeadlock: return 4;
  }
  return 1;
}

void dump_machine_regs(sim::SimSystem& system) {
  for (std::size_t c = 0; c < system.core_count(); ++c) {
    if (system.core_count() > 1) {
      std::printf("%s:\n", system.core_name(c).c_str());
    }
    for (unsigned r = 0; r < isa::kNumRegisters; ++r) {
      std::printf("  r%-2u = 0x%08x%s", r, system.cpu(c).reg(r),
                  (r % 4 == 3) ? "\n" : "  ");
    }
  }
}

/// Build the described machine and run (or debug) it, reporting machine
/// totals plus, on a multi-core machine, per-core figures.
int run_machine(const Options& options, machine::MachineDesc desc) {
  apps::register_machine_peripherals();
  std::printf("machine: %zu core(s), %zu link(s), %zu peripheral(s), "
              "quantum %llu, fifo depth %zu\n",
              desc.cores.size(), desc.links.size(), desc.peripherals.size(),
              static_cast<unsigned long long>(desc.quantum), desc.fifo_depth);

  std::optional<fault::FaultPlan> plan;
  if (!options.fault_spec.empty()) {
    const Expected<fault::FaultPlan> parsed =
        fault::parse_plan(options.fault_spec, options.fault_seed);
    if (!parsed) {
      std::fprintf(stderr, "%s\n", parsed.error().c_str());
      return 1;
    }
    plan = parsed.value();
    std::printf("fault plan: %s\n", plan->to_string().c_str());
  }

  const std::size_t desc_cores = desc.cores.size();
  sim::SimSystem::Builder builder;
  builder.machine(std::move(desc));
  if (options.workers) builder.workers(*options.workers);
  if (options.gdb_core) builder.gdb_core(*options.gdb_core);
  if (plan) builder.fault(*plan);
  if (options.trace_path == "-" && desc_cores == 1) {
    auto sink = std::make_unique<obs::JsonlSink>(std::cout);
    sink->set_disassembler(
        [](Addr, Word raw) { return isa::disassemble(raw); });
    builder.sink(std::move(sink));
  } else if (!options.trace_path.empty()) {
    builder.trace(options.trace_path);
  }
  if (!options.vcd_path.empty()) builder.vcd(options.vcd_path);
  if (options.metrics) builder.metrics();
  Expected<sim::SimSystem> built = builder.build();
  if (!built) {
    std::fprintf(stderr, "%s\n", built.error().c_str());
    return 1;
  }
  sim::SimSystem system = std::move(built).value();

  // Checkpoint chatter goes to stderr, so a restored run's stdout stays
  // byte-identical to the tail of a free run's (the CI replay diff
  // depends on that).
  if (!options.load_ckpt_path.empty()) {
    if (const Status restored = system.restore(options.load_ckpt_path);
        !restored.ok) {
      std::fprintf(stderr, "%s\n", restored.message.c_str());
      return 1;
    }
    std::fprintf(stderr, "restored checkpoint from %s\n",
                 options.load_ckpt_path.c_str());
  }

  int code = 0;
  if (options.gdb_port) {
    const Expected<rsp::SessionEnd> end =
        system.serve_gdb(*options.gdb_port, [](u16 port) {
          std::printf("gdb server listening on 127.0.0.1:%u\n",
                      static_cast<unsigned>(port));
          std::fflush(stdout);
        });
    if (!end) {
      std::fprintf(stderr, "%s\n", end.error().c_str());
      return 1;
    }
    std::printf("gdb client %s\n", rsp::to_string(end.value()));
  } else {
    const core::StopReason reason = system.run(options.max_cycles);
    const core::CoSimStats total = system.stats();
    std::printf("stopped: %s", core::stop_reason_name(reason));
    if (system.core_count() > 1 &&
        (reason == core::StopReason::kIllegal ||
         reason == core::StopReason::kDeadlock ||
         reason == core::StopReason::kHalted) &&
        system.stop_core() < system.core_count()) {
      // For kHalted this is the last core to halt, not a culprit.
      std::printf(" (core '%s')",
                  system.core_name(system.stop_core()).c_str());
    }
    std::printf(" after %llu cycles (%.2f usec @ 50 MHz), "
                "%llu instructions",
                static_cast<unsigned long long>(total.cycles),
                cycles_to_usec(total.cycles),
                static_cast<unsigned long long>(total.instructions));
    if (system.core_count() > 1) {
      std::printf(", %llu link words",
                  static_cast<unsigned long long>(
                      system.machine_engine()->link_words()));
    }
    std::printf("\n");
    code = exit_code(reason);
    if (!options.save_ckpt_path.empty()) {
      if (const Status saved = system.save_checkpoint(options.save_ckpt_path);
          !saved.ok) {
        std::fprintf(stderr, "%s\n", saved.message.c_str());
        return 1;
      }
      std::fprintf(stderr, "saved checkpoint to %s\n",
                   options.save_ckpt_path.c_str());
    }
  }

  if (system.core_count() > 1) {
    for (std::size_t c = 0; c < system.core_count(); ++c) {
      const core::CoSimStats stats = system.core_stats(c);
      std::printf("  %s: %llu cycles, %llu instructions, "
                  "%llu fsl-stall cycles\n",
                  system.core_name(c).c_str(),
                  static_cast<unsigned long long>(stats.cycles),
                  static_cast<unsigned long long>(stats.instructions),
                  static_cast<unsigned long long>(stats.fsl_stall_cycles));
    }
  }
  if (plan) {
    if (const fault::Injector* injector = system.fault_injector();
        injector != nullptr && injector->armed_or_fired()) {
      std::printf("fault: %s\n", injector->detail().empty()
                                     ? "armed (did not fire)"
                                     : injector->detail().c_str());
    } else {
      std::printf("fault: trigger not reached\n");
    }
  }
  if (const auto diagnosis = system.deadlock_diagnosis(); diagnosis) {
    if (system.core_count() > 1) {
      std::printf("core '%s': ", system.core_name(system.stop_core()).c_str());
    }
    std::printf("%s\n", diagnosis->to_string().c_str());
  }
  if (const Status sinks = system.sink_status(); !sinks.ok) {
    std::fprintf(stderr, "warning: %s\n", sinks.message.c_str());
  }
  if (options.metrics) {
    std::printf("%s", system.metrics_snapshot().to_string().c_str());
    // The host's translation work is not simulated state: on stderr.
    obs::MetricsSnapshot host;
    for (std::size_t c = 0; c < system.core_count(); ++c) {
      const iss::DbtStats& dbt = system.cpu(c).dbt_stats();
      std::string at = "host.dbt.";
      if (system.core_count() > 1) at += system.core_name(c) + ".";
      host.counters[at + "blocks_translated"] = dbt.blocks_translated;
      host.counters[at + "block_dispatches"] = dbt.block_dispatches;
      host.counters[at + "smc_retirements"] = dbt.smc_retirements;
      host.counters[at + "fast_path_instructions"] = dbt.dbt_instructions;
    }
    std::fprintf(stderr, "%s", host.to_string().c_str());
  }
  if (options.dump_regs) dump_machine_regs(system);
  dump_memory(options, system.memory());
  return code;
}

int run_on_rtl(const Options& options, const assembler::Program& program) {
  rtlmodels::RtlSystem rtl(program, options.cpu,
                           rtlmodels::RtlPeripheralConfig{});
  rtlmodels::RtlStopReason reason = rtlmodels::RtlStopReason::kCycleLimit;
  if (!options.vcd_path.empty()) {
    std::ofstream vcd_file(options.vcd_path);
    if (!vcd_file) {
      std::fprintf(stderr, "cannot open %s\n", options.vcd_path.c_str());
      return 1;
    }
    // Observe the architectural-state nets plus a few datapath buses.
    std::vector<const rtl::Net*> probes;
    for (const char* name : {"clk", "cpu.pc", "cpu.halted", "cpu.op_a",
                             "cpu.op_b", "cpu.result", "cpu.msr", "cpu.r3",
                             "cpu.r4", "cpu.r5"}) {
      if (const rtl::Net* net = rtl.simulator().find_net(name)) {
        probes.push_back(net);
      }
    }
    rtl::VcdWriter vcd(vcd_file, probes);
    // Tick manually so every clock cycle lands in the waveform.
    Cycle cycle = 0;
    while (!rtl.core().halted() && cycle < options.max_cycles) {
      rtl.tick();
      vcd.sample(cycle++);
    }
    reason = rtl.core().illegal() ? rtlmodels::RtlStopReason::kIllegal
             : rtl.core().halted() ? rtlmodels::RtlStopReason::kHalted
                                   : rtlmodels::RtlStopReason::kCycleLimit;
    std::printf("wrote %llu waveform samples to %s\n",
                static_cast<unsigned long long>(vcd.samples_taken()),
                options.vcd_path.c_str());
  } else {
    reason = rtl.run(options.max_cycles);
  }
  std::printf("RTL stopped: %s after %llu cycles; kernel: %llu events, "
              "%llu activations, %llu delta cycles\n",
              reason == rtlmodels::RtlStopReason::kHalted ? "halted"
              : reason == rtlmodels::RtlStopReason::kIllegal
                  ? "illegal instruction"
                  : "cycle budget exhausted",
              static_cast<unsigned long long>(rtl.cycles()),
              static_cast<unsigned long long>(rtl.kernel_stats().events),
              static_cast<unsigned long long>(
                  rtl.kernel_stats().process_activations),
              static_cast<unsigned long long>(
                  rtl.kernel_stats().delta_cycles));
  if (options.dump_regs) {
    for (unsigned r = 0; r < isa::kNumRegisters; ++r) {
      std::printf("  r%-2u = 0x%08x%s", r, rtl.core().reg_value(r),
                  (r % 4 == 3) ? "\n" : "  ");
    }
  }
  dump_memory(options, rtl.memory());
  if (reason == rtlmodels::RtlStopReason::kHalted) return 0;
  return reason == rtlmodels::RtlStopReason::kIllegal ? 2 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return 1;
  }

  if (!options.machine_path.empty()) {
    Expected<machine::MachineDesc> desc =
        machine::MachineDesc::from_file(options.machine_path);
    if (!desc) {
      std::fprintf(stderr, "%s\n", desc.error().c_str());
      return 1;
    }
    try {
      return run_machine(options, std::move(desc).value());
    } catch (const SimError& error) {
      std::fprintf(stderr, "simulation error: %s\n", error.what());
      return 1;
    }
  }

  std::ifstream file(options.source_path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", options.source_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  const auto assembled = assembler::assemble(buffer.str());
  if (!assembled.ok()) {
    std::fprintf(stderr, "%s: assembly failed:\n%s\n",
                 options.source_path.c_str(), assembled.error().c_str());
    return 1;
  }
  const assembler::Program& program = assembled.value();
  const auto summary = assembler::summarize(program);
  std::printf("%s: %u bytes (%u instructions, %u data words), %u BRAM(s)\n",
              options.source_path.c_str(), summary.size_bytes,
              summary.instruction_words, summary.data_words,
              assembler::brams_for_program(program));

  if (options.disasm_only) {
    std::printf("%s", assembler::listing(program).c_str());
    return 0;
  }
  try {
    if (options.use_rtl) return run_on_rtl(options, program);
    machine::MachineDesc desc = machine::MachineDesc::single_core(buffer.str());
    machine::CoreDesc& core = desc.cores.front();
    core.has_multiplier = options.cpu.has_multiplier;
    core.has_barrel_shifter = options.cpu.has_barrel_shifter;
    core.has_divider = options.cpu.has_divider;
    core.exec_tier = options.exec_tier;
    if (options.cores > 0) {
      core.name.clear();  // replicated() names the copies cpu0..cpuN-1
      desc = machine::MachineDesc::replicated(options.cores, core);
    }
    return run_machine(options, std::move(desc));
  } catch (const SimError& error) {
    std::fprintf(stderr, "simulation error: %s\n", error.what());
    return 1;
  }
}
