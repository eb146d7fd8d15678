// CoSimEngine::tick_hardware jumps over the cycles of a call that repeat
// a stepped one (settled model, no FIFO word moved) in O(1). Differential
// check: random chunkings of tick_hardware, with processor-side FIFO
// traffic between chunks, at quiescence windows {0, 1, drain bound, 1e6},
// against the same chunks ticked one cycle per call on a design that
// never settles (an extra ElisionSwitch that reports every latch as a
// change). CoSimStats, the model's cycle, the trace bus time cursor,
// every trace event (one call's quiesce_skip event equals the sum of the
// per-cycle calls' ones) and the engine + model + FIFO images must agree
// after every chunk.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cordic/cordic_hw.hpp"
#include "apps/matmul/matmul_hw.hpp"
#include "ckpt/ckpt.hpp"
#include "common/rng.hpp"
#include "core/cosim_engine.hpp"
#include "sysgen/elision_switch.hpp"

namespace mbcosim::core {
namespace {

/// The fields of a trace event, with the channel name copied out.
struct Recorded {
  obs::EventKind kind{};
  Cycle cycle = 0;
  std::string channel;
  u32 occupancy = 0;
  Word data = 0;
  bool control = false;
  Cycle skipped = 0;

  friend bool operator==(const Recorded&, const Recorded&) = default;
};

class Recorder : public obs::TraceSink {
 public:
  explicit Recorder(std::vector<Recorded>& events) : events_(events) {}
  void on_event(const obs::TraceEvent& event) override {
    events_.push_back({event.kind, event.cycle,
                       event.channel != nullptr ? event.channel : "",
                       event.occupancy, event.data, event.control,
                       event.skipped});
  }

 private:
  std::vector<Recorded>& events_;
};

/// Adds a peripheral to a model and binds it onto FSL channel 0.
using Build = std::function<void(sysgen::Model&, FslBridge&)>;

struct Rig {
  Rig(const Build& build, bool settles, Cycle window)
      : memory(4 * 1024),
        cpu(isa::CpuConfig{}, memory, &hub),
        model("dut"),
        engine(cpu, &model, hub) {
    model.add<sysgen::ElisionSwitch>(settles);
    build(model, engine.bridge());
    model.elaborate();
    engine.set_quiescence_window(window);
    bus.add_sink(std::make_unique<Recorder>(events));
    engine.set_trace_bus(&bus);
    hub.set_trace_bus(&bus);
  }

  [[nodiscard]] std::vector<unsigned char> image() const {
    ckpt::Writer writer;
    engine.save_state(writer);
    model.save_state(writer);
    hub.save_state(writer);
    return writer.take();
  }

  iss::LmbMemory memory;
  fsl::FslHub hub;
  iss::Processor cpu;
  sysgen::Model model;
  CoSimEngine engine;
  obs::TraceBus bus;
  std::vector<Recorded> events;
};

void expect_same_stats(const CoSimStats& got, const CoSimStats& want,
                       const std::string& what) {
  EXPECT_EQ(got.cycles, want.cycles) << what;
  EXPECT_EQ(got.instructions, want.instructions) << what;
  EXPECT_EQ(got.fsl_stall_cycles, want.fsl_stall_cycles) << what;
  EXPECT_EQ(got.hw_cycles_stepped, want.hw_cycles_stepped) << what;
  EXPECT_EQ(got.hw_cycles_skipped, want.hw_cycles_skipped) << what;
  EXPECT_EQ(got.bridge.words_to_hw, want.bridge.words_to_hw) << what;
  EXPECT_EQ(got.bridge.words_from_hw, want.bridge.words_from_hw) << what;
  EXPECT_EQ(got.bridge.refused_writes, want.bridge.refused_writes) << what;
}

struct Tally {
  Cycle cycles = 0;
  Cycle skipped = 0;
  u64 words = 0;
  u64 refused = 0;
};

/// One random schedule: between chunks the "processor" pushes words into
/// the peripheral's input FIFO and drains some of its output FIFO.
void check_chunking(const Build& build, Cycle window, u64 seed,
                    const std::string& what, Tally& tally) {
  Rig candidate(build, true, window);
  Rig reference(build, false, window);
  Rng rng(seed);
  std::size_t reference_seen = 0;
  Cycle total = 0;
  while (total < 6000) {
    for (i64 n = rng.next_in(0, 6); n > 0; --n) {
      const auto data = static_cast<Word>(rng.next_below(1ull << 32));
      const bool control = rng.next_below(8) == 0;
      candidate.hub.to_hw(0).try_write(data, control);
      reference.hub.to_hw(0).try_write(data, control);
    }
    // Half the time the output FIFO is left to fill: the peripheral then
    // sits stalled with its writes refused.
    for (i64 n = rng.next_below(2) == 0 ? rng.next_in(0, 12) : 0; n > 0;
         --n) {
      std::ignore = candidate.hub.from_hw(0).try_read();
      std::ignore = reference.hub.from_hw(0).try_read();
    }
    const Cycle chunk = rng.next_below(4) == 0
                            ? static_cast<Cycle>(rng.next_in(100, 600))
                            : static_cast<Cycle>(rng.next_in(0, 40));
    candidate.engine.tick_hardware(chunk);
    for (Cycle i = 0; i < chunk; ++i) reference.engine.tick_hardware(1);
    total += chunk;
    const std::string at = what + " cycle " + std::to_string(total);

    // The reference's per-cycle quiesce_skip events of this chunk are a
    // tail (skipping, once it starts, lasts to the end of the call);
    // together they are the candidate's one event.
    std::vector<Recorded> want(reference.events.begin() +
                                   static_cast<std::ptrdiff_t>(reference_seen),
                               reference.events.end());
    reference_seen = reference.events.size();
    Recorded merged;
    merged.kind = obs::EventKind::kQuiesceSkip;
    while (!want.empty() && want.back().kind == obs::EventKind::kQuiesceSkip) {
      merged.cycle = std::max(merged.cycle, want.back().cycle);
      merged.skipped += want.back().skipped;
      want.pop_back();
    }
    if (merged.skipped != 0) want.push_back(merged);
    ASSERT_EQ(candidate.events, want) << at;
    candidate.events.clear();

    expect_same_stats(candidate.engine.stats(), reference.engine.stats(), at);
    ASSERT_EQ(candidate.model.cycle(), reference.model.cycle()) << at;
    ASSERT_EQ(candidate.bus.time(), reference.bus.time()) << at;
    ASSERT_EQ(candidate.image(), reference.image()) << at;
  }
  const CoSimStats stats = candidate.engine.stats();
  tally.cycles += stats.hw_cycles_stepped + stats.hw_cycles_skipped;
  tally.skipped += stats.hw_cycles_skipped;
  tally.words += stats.bridge.words_to_hw + stats.bridge.words_from_hw;
  tally.refused += stats.bridge.refused_writes;
}

TEST(ElidedTicks, ChunkedTicksMatchPerCycleStepping) {
  struct Design {
    std::string name;
    Build build;
    Cycle drain;  ///< the application's quiescence window
  };
  std::vector<Design> designs;
  for (unsigned p : {1u, 3u, 8u}) {
    designs.push_back({"cordic P=" + std::to_string(p),
                       [p](sysgen::Model& m, FslBridge& bridge) {
                         const FslPort port =
                             apps::cordic::add_cordic_pipeline(m, p);
                         ASSERT_TRUE(bridge.bind(port).ok);
                       },
                       p + 16});
  }
  for (unsigned n : {2u, 4u}) {
    designs.push_back({"matmul n=" + std::to_string(n),
                       [n](sysgen::Model& m, FslBridge& bridge) {
                         const FslPort port =
                             apps::matmul::add_matmul_peripheral(m, n);
                         ASSERT_TRUE(bridge.bind(port).ok);
                       },
                       2 * n + 16});
  }
  Tally tally;
  u64 seed = 1;
  for (const Design& design : designs) {
    for (const Cycle window : {Cycle{0}, Cycle{1}, design.drain,
                               Cycle{1'000'000}}) {
      for (int trial = 0; trial < 2; ++trial) {
        check_chunking(design.build, window, seed++,
                       design.name + " window " + std::to_string(window),
                       tally);
      }
    }
  }
  // Traffic flowed, met backpressure, and the quiescence window skipped
  // cycles.
  EXPECT_GT(tally.words, 1000u);
  EXPECT_GT(tally.refused, 100u);
  EXPECT_GT(tally.skipped, tally.cycles / 10);
}

TEST(ElidedTicks, PeripheralFreeTickIsConstantTime) {
  // A core without peripherals has an empty model and an unbound bridge:
  // its first cycle settles, and the rest of any call costs nothing.
  fsl::FslHub hub;
  iss::LmbMemory memory(4 * 1024);
  iss::Processor cpu(isa::CpuConfig{}, memory, &hub);
  sysgen::Model empty("empty");
  CoSimEngine engine(cpu, &empty, hub);
  constexpr Cycle kCycles = 1'000'000'000'000;
  engine.tick_hardware(kCycles);
  engine.tick_hardware(kCycles);
  EXPECT_EQ(engine.stats().hw_cycles_stepped, 2 * kCycles);
  EXPECT_EQ(engine.stats().hw_cycles_skipped, 0u);
  EXPECT_EQ(empty.cycle(), 2 * kCycles);
}

}  // namespace
}  // namespace mbcosim::core
