// Shared fixture for ISS tests: assemble a source snippet, load it, run.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "asm/assembler.hpp"
#include "fsl/fsl_hub.hpp"
#include "iss/memory.hpp"
#include "iss/processor.hpp"
#include "obs/trace_bus.hpp"

namespace mbcosim::iss::testing {

/// A trace sink that keeps a copy of every event it sees.
class RecordingSink : public obs::TraceSink {
 public:
  explicit RecordingSink(std::vector<obs::TraceEvent>& events)
      : events_(events) {}
  void on_event(const obs::TraceEvent& event) override {
    events_.push_back(event);
  }

 private:
  std::vector<obs::TraceEvent>& events_;
};

struct TestMachine {
  explicit TestMachine(std::string_view source,
                       isa::CpuConfig config = make_default_config())
      : program(assembler::assemble_or_throw(source)),
        memory(64 * 1024),
        cpu(config, memory, &hub) {
    memory.load_program(program);
    cpu.reset(program.entry());
  }

  static isa::CpuConfig make_default_config() {
    isa::CpuConfig config;
    config.has_barrel_shifter = true;
    config.has_multiplier = true;
    config.has_divider = true;
    return config;
  }

  /// Run to completion; returns the final event.
  Event run(Cycle max_cycles = 1'000'000) { return cpu.run(max_cycles); }

  /// Observe the processor through a recording sink on its trace bus;
  /// every later step appends its event to the returned vector.
  std::vector<obs::TraceEvent>& record_events() {
    bus.add_sink(std::make_unique<RecordingSink>(events));
    cpu.set_trace_bus(&bus);
    return events;
  }

  assembler::Program program;
  LmbMemory memory;
  fsl::FslHub hub;
  Processor cpu;
  obs::TraceBus bus;
  std::vector<obs::TraceEvent> events;
};

}  // namespace mbcosim::iss::testing
