#include "fault/experiment.hpp"

#include <cstdio>
#include <utility>

#include "fault/injector.hpp"
#include "obs/event.hpp"

namespace mbcosim::fault {

const char* outcome_name(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kMasked: return "masked";
    case Outcome::kSdc: return "sdc";
    case Outcome::kHang: return "hang";
    case Outcome::kTrap: return "trap";
  }
  return "unknown";
}

Expected<GoldenReference> run_golden(const SystemFactory& factory,
                                     const OutputExtractor& extract,
                                     Cycle max_cycles) {
  auto built = factory(nullptr);
  if (!built.ok()) {
    return Expected<GoldenReference>::failure("golden build failed: " +
                                              built.error());
  }
  sim::SimSystem system = std::move(built).value();
  GoldenReference golden;
  golden.stop = system.run(max_cycles);
  if (golden.stop != core::StopReason::kHalted) {
    return Expected<GoldenReference>::failure(
        std::string("golden run did not halt: stopped on ") +
        core::stop_reason_name(golden.stop));
  }
  golden.cycles = system.cpu().cycle();
  golden.outputs = extract(system);
  return golden;
}

namespace {

// First index at which the faulted outputs differ from the golden ones
// (size mismatch counts as a difference at the shorter length).
[[nodiscard]] std::string describe_sdc(const std::vector<Word>& golden,
                                       const std::vector<Word>& faulted) {
  char buf[96];
  if (golden.size() != faulted.size()) {
    std::snprintf(buf, sizeof buf, "output count %zu != golden %zu",
                  faulted.size(), golden.size());
    return buf;
  }
  for (std::size_t i = 0; i < golden.size(); ++i) {
    if (faulted[i] != golden[i]) {
      std::snprintf(buf, sizeof buf,
                    "output[%zu] = 0x%08x, golden 0x%08x", i,
                    static_cast<unsigned>(faulted[i]),
                    static_cast<unsigned>(golden[i]));
      return buf;
    }
  }
  return "outputs differ";
}

}  // namespace

ExperimentResult run_experiment(const SystemFactory& factory,
                                const OutputExtractor& extract,
                                const FaultPlan& plan,
                                const GoldenReference& golden,
                                Cycle max_cycles,
                                const std::vector<unsigned char>* fork_image) {
  ExperimentResult result;
  result.plan = plan;

  auto built = factory(&plan);
  if (!built.ok()) {
    result.error = built.error();
    result.outcome = Outcome::kMasked;  // never ran; counted separately
    return result;
  }
  sim::SimSystem system = std::move(built).value();

  if (fork_image != nullptr) {
    // Skip the shared fault-free prefix: resume from the base image.
    // run() then carries the clocks from the restored point to the
    // trigger and onward, exactly as a full run would have.
    if (const Status restored = system.restore_image(*fork_image);
        !restored.ok) {
      system.reset();  // fall back to the full run; correct, just slower
    }
  }

  result.stop = system.run(max_cycles);
  result.cycles = system.cpu().cycle();
  if (const Injector* injector = system.fault_injector();
      injector != nullptr) {
    result.injected = injector->applied();
    result.detail = injector->detail();
  }

  auto append_detail = [&result](const std::string& text) {
    if (text.empty()) return;
    if (!result.detail.empty()) result.detail += "; ";
    result.detail += text;
  };

  switch (result.stop) {
    case core::StopReason::kHalted: {
      const std::vector<Word> outputs = extract(system);
      if (outputs == golden.outputs) {
        result.outcome = Outcome::kMasked;
      } else {
        result.outcome = Outcome::kSdc;
        append_detail(describe_sdc(golden.outputs, outputs));
      }
      break;
    }
    case core::StopReason::kDeadlock:
    case core::StopReason::kCycleLimit:
      result.outcome = Outcome::kHang;
      if (const auto diagnosis = system.deadlock_diagnosis(); diagnosis) {
        append_detail(diagnosis->to_string());
      } else if (result.stop == core::StopReason::kCycleLimit) {
        append_detail("cycle budget exhausted");
      }
      break;
    case core::StopReason::kIllegal:
      result.outcome = Outcome::kTrap;
      break;
  }

  if (obs::MetricsRegistry* metrics = system.metrics_registry()) {
    metrics->fault.outcomes[outcome_name(result.outcome)] += 1;
  }
  if (obs::TraceBus& bus = system.trace_bus(); bus.enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kFaultOutcome;
    event.cycle = result.cycles;
    event.label = outcome_name(result.outcome);
    event.detail = result.detail.empty() ? nullptr : result.detail.c_str();
    bus.emit(event);
    bus.flush();
  }
  return result;
}

}  // namespace mbcosim::fault
