// Checkpoint subsystem bench: snapshot size and save/restore latency on
// a long single-core workload, and the headline fork-from-checkpoint
// campaign acceleration. A fault campaign whose cycle triggers all land
// late in the run re-simulates the same fault-free prefix once per
// experiment; forking every experiment from one snapshot of that prefix
// removes the redundancy without changing a byte of the report. This
// bench measures the speedup AND asserts the byte-identity (exit 1 on a
// report mismatch — it is the correctness oracle, not just a timer).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/ckpt.hpp"
#include "common/stopwatch.hpp"
#include "fault/campaign.hpp"
#include "sim/sim_system.hpp"

namespace {

// ~1.5M-cycle countdown sum: a long fault-free prefix with a single
// architectural output word, so late faults classify as masked/sdc.
constexpr const char* kLongProgram = R"(
start:
  li r3, 300000
  addk r4, r0, r0
loop:
  addk r4, r4, r3
  addik r3, r3, -1
  bnei r3, loop
  la r5, result
  swi r4, r5, 0
  halt
result: .space 4
)";

constexpr mbcosim::Cycle kPrefixCycles = 1'200'000;  // quantum of interest
constexpr mbcosim::Cycle kBudget = 1'600'000;

mbcosim::Expected<mbcosim::sim::SimSystem> long_factory(
    const mbcosim::fault::FaultPlan* plan) {
  mbcosim::sim::SimSystem::Builder builder;
  builder.machine(mbcosim::machine::MachineDesc::single_core(kLongProgram));
  if (plan != nullptr) builder.fault(*plan);
  return builder.build();
}

std::vector<mbcosim::Word> long_outputs(mbcosim::sim::SimSystem& system) {
  return {system.word("result")};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbcosim;
  using namespace mbcosim::bench;

  const std::string json_path =
      take_json_path_arg(argc, argv, "BENCH_ckpt.json");
  JsonReport report("ckpt");

  // ------------------------------------------- snapshot size and latency
  print_header("Checkpoint mechanics: snapshot size, save/restore latency");
  auto built = long_factory(nullptr);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.error().c_str());
    return 1;
  }
  sim::SimSystem system = std::move(built).value();
  if (system.run(kPrefixCycles) != core::StopReason::kCycleLimit) {
    std::fprintf(stderr, "prefix run ended early\n");
    return 1;
  }
  Stopwatch save_watch;
  const std::vector<unsigned char> image = system.snapshot();
  const double save_seconds = save_watch.elapsed_seconds();

  auto resumed_built = long_factory(nullptr);
  if (!resumed_built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", resumed_built.error().c_str());
    return 1;
  }
  sim::SimSystem resumed = std::move(resumed_built).value();
  Stopwatch restore_watch;
  if (const Status restored = resumed.restore_image(image); !restored.ok) {
    std::fprintf(stderr, "restore failed: %s\n", restored.message.c_str());
    return 1;
  }
  const double restore_seconds = restore_watch.elapsed_seconds();
  std::printf("%-24s %12zu bytes\n", "snapshot size", image.size());
  std::printf("%-24s %12.6f s\n", "snapshot() latency", save_seconds);
  std::printf("%-24s %12.6f s\n", "restore_image() latency", restore_seconds);
  report.add("snapshot_bytes=" + std::to_string(image.size()), kPrefixCycles,
             save_seconds);
  report.add("restore", kPrefixCycles, restore_seconds);

  // -------------------------------------- fork-from-checkpoint campaign
  print_header(
      "Fork-from-checkpoint campaign: late triggers, 24 experiments");
  fault::CampaignConfig config;
  config.seed = 0xF0DE;
  config.experiments = 24;
  config.threads = 1;  // serial: wall time measures simulated work only
  config.max_cycles = kBudget;
  config.space.mem_base = 0;
  config.space.mem_bytes = 64;
  config.space.registers = 8;
  config.space.opb = false;
  // The vulnerability window under study is the tail of the run: every
  // trigger lands after 1.4M of the ~1.5M golden cycles, so the shared
  // fault-free prefix dominates an unforked experiment (>90% of its
  // simulated cycles are redundant re-simulation).
  config.space.min_trigger_cycle = 1'400'000;
  config.space.max_trigger_cycle = 1'450'000;

  config.fork = false;
  Stopwatch unforked_watch;
  const auto unforked = fault::run_campaign(config, long_factory, long_outputs);
  const double unforked_seconds = unforked_watch.elapsed_seconds();
  if (!unforked.ok()) {
    std::fprintf(stderr, "unforked campaign failed: %s\n",
                 unforked.error().c_str());
    return 1;
  }

  config.fork = true;
  Stopwatch forked_watch;
  const auto forked = fault::run_campaign(config, long_factory, long_outputs);
  const double forked_seconds = forked_watch.elapsed_seconds();
  if (!forked.ok()) {
    std::fprintf(stderr, "forked campaign failed: %s\n",
                 forked.error().c_str());
    return 1;
  }

  Cycle simulated = 0;
  for (const fault::ExperimentResult& row : unforked.value().results) {
    simulated += row.cycles;
  }
  const double speedup =
      forked_seconds > 0.0 ? unforked_seconds / forked_seconds : 0.0;
  std::printf("%-24s %12.4f s\n", "campaign, fork off", unforked_seconds);
  std::printf("%-24s %12.4f s\n", "campaign, fork on", forked_seconds);
  std::printf("%-24s %12.2fx\n", "fork speedup", speedup);
  report.add("campaign_fork=off", simulated, unforked_seconds);
  report.add("campaign_fork=on", simulated, forked_seconds);

  // The correctness oracle: acceleration must be invisible in the
  // vulnerability report, byte for byte.
  if (forked.value().to_json() != unforked.value().to_json()) {
    std::fprintf(stderr,
                 "FAIL: forked campaign report differs from unforked\n");
    return 1;
  }
  std::printf("forked report is byte-identical to the unforked report\n");
  if (speedup < 5.0) {
    std::printf("note: fork speedup %.2fx is below the 5x target "
                "(loaded host?)\n", speedup);
  }

  return report.write(json_path) ? 0 : 1;
}
