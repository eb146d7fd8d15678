// Chunk invariance of the deadlock rule: each core's stall streak lives
// in its engine and carries over between run() calls, so a run split
// into chunks (hosted quanta, a caller saving between calls) stops
// exactly where one call stops — same stop, cycle and diagnosis, one
// `deadlock` event and one `engine.deadlocks` count.
#include <algorithm>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/cosim_engine.hpp"
#include "machine/machine_desc.hpp"
#include "obs/trace_bus.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::core {
namespace {

constexpr Cycle kThreshold = 1000;
constexpr Cycle kLimit = 1'000'000;

/// Counts the `deadlock` events of the bus it is attached to.
class DeadlockCounter final : public obs::TraceSink {
 public:
  explicit DeadlockCounter(std::size_t& count) : count_(count) {}
  void on_event(const obs::TraceEvent& event) override {
    if (event.kind == obs::EventKind::kDeadlock) ++count_;
  }

 private:
  std::size_t& count_;
};

struct Outcome {
  StopReason reason = StopReason::kCycleLimit;
  std::size_t stop_core = 0;
  Cycle cycles = 0;
  std::string diagnosis;
  u64 deadlocks = 0;        ///< `engine.deadlocks`, summed over the cores
  std::size_t events = 0;   ///< `deadlock` trace events, every core

  bool operator==(const Outcome&) const = default;
};

void PrintTo(const Outcome& outcome, std::ostream* os) {
  *os << stop_reason_name(outcome.reason) << " core " << outcome.stop_core
      << " at " << outcome.cycles << " (" << outcome.diagnosis << "), "
      << outcome.deadlocks << " counted, " << outcome.events << " events";
}

/// Run `desc` at threshold kThreshold up to kLimit cycles, in calls that
/// each advance `chunk` cycles (0: one call), with metrics on and, when
/// `traced`, an event counter on every core's bus (which also keeps
/// every core on the precise lock-step path).
Outcome run_chunked(const machine::MachineDesc& desc, Cycle chunk,
                    bool traced, unsigned workers = 1) {
  sim::SimSystem::Builder builder;
  builder.machine(desc).deadlock_threshold(kThreshold).metrics().workers(
      workers);
  auto built = builder.build();
  if (!built.ok()) throw SimError(built.error());
  sim::SimSystem system = std::move(built).value();

  Outcome outcome;
  for (std::size_t core = 0; traced && core < system.core_count(); ++core) {
    system.trace_bus(core).add_sink(
        std::make_unique<DeadlockCounter>(outcome.events));
  }
  Cycle target = 0;
  do {
    target = chunk == 0 ? kLimit : std::min(target + chunk, kLimit);
    outcome.reason = system.run(target);
  } while (outcome.reason == StopReason::kCycleLimit && target < kLimit);

  outcome.stop_core = system.stop_core();
  outcome.cycles = system.stats().cycles;
  if (const auto diagnosis = system.deadlock_diagnosis(); diagnosis) {
    outcome.diagnosis = diagnosis->to_string();
  }
  for (std::size_t core = 0; core < system.core_count(); ++core) {
    outcome.deadlocks += system.metrics_registry(core)->engine.deadlocks;
  }
  return outcome;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ChunkedDeadlock, OneCoreStopsWhereOneCallStops) {
  const std::string programs[] = {
      // Blocks at once: a get with no peripheral behind it.
      read_file(MBCOSIM_TEST_DATA_DIR "/cli_get_deadlock.s"),
      // Computes for about 500 cycles, then blocks.
      "  li r3, 160\n"
      "spin:\n"
      "  addik r3, r3, -1\n"
      "  bnei r3, spin\n"
      "  get r4, rfsl0\n"
      "  halt\n",
  };
  for (const std::string& program : programs) {
    const machine::MachineDesc desc =
        machine::MachineDesc::single_core(program);
    for (const bool traced : {false, true}) {
      SCOPED_TRACE(std::string(traced ? "traced " : "") + program);
      const Outcome one_call = run_chunked(desc, 0, traced);
      EXPECT_EQ(one_call.reason, StopReason::kDeadlock);
      EXPECT_EQ(one_call.deadlocks, 1u);
      EXPECT_EQ(one_call.events, traced ? 1u : 0u);
      EXPECT_NE(one_call.diagnosis.find("blocked 1000 cycles"),
                std::string::npos)
          << one_call.diagnosis;
      for (const Cycle chunk : {Cycle{7}, Cycle{333}, Cycle{999}}) {
        EXPECT_EQ(run_chunked(desc, chunk, traced), one_call)
            << chunk << "-cycle chunks";
      }
    }
  }
}

TEST(ChunkedDeadlock, StarvedMachineStopsWhereOneCallStops) {
  // The producer counts down and halts; the consumer waits forever on
  // its cross-link. Chunks of whole quanta end on round barriers; the
  // others end mid-round, where no deadlock may be declared early.
  auto loaded = machine::MachineDesc::from_file(MBCOSIM_TEST_DATA_DIR
                                                "/cli_machine_deadlock.json");
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  const machine::MachineDesc desc = std::move(loaded).value();
  const Cycle quantum = desc.quantum;
  for (const bool traced : {false, true}) {
    for (const unsigned workers : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(workers) + " workers" +
                   (traced ? ", traced" : ""));
      const Outcome one_call = run_chunked(desc, 0, traced, workers);
      EXPECT_EQ(one_call.reason, StopReason::kDeadlock);
      EXPECT_EQ(one_call.stop_core, 1u);
      EXPECT_EQ(one_call.deadlocks, 1u);
      EXPECT_EQ(one_call.events, traced ? 1u : 0u);
      for (const Cycle chunk : {quantum, 7 * quantum, 13 * quantum,
                                Cycle{100}, Cycle{333}}) {
        EXPECT_EQ(run_chunked(desc, chunk, traced, workers), one_call)
            << chunk << "-cycle chunks";
      }
    }
  }
}

}  // namespace
}  // namespace mbcosim::core
