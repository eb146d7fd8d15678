// Differential tests of activity-driven passes and elided cycles
// (DESIGN.md §15): a model that runs only the regions whose inputs or
// state changed, and skips the steps it proves repeat the last one, must
// be indistinguishable from the same model evaluated in full on every
// cycle — every named signal and its checkpoint image on every cycle,
// including across a restore taken while it is settled and across
// reset(). The reference is a second copy of the design that restores
// its own image before each step, which leaves every region pending, so
// each of its steps runs every op. Designs: every shipped peripheral
// (CORDIC P=1..8 and 16, matmul blocks 2 and 4), the lowered serializer
// alone under long FSL_M_Full stretches (also checked against a
// reference queue), and seeded random graphs of lowered blocks with the
// queue-backed FifoBlock (a fallback block) and the serializer, some
// with a Constant and a GatewayIn read all over the graph, driven with
// long runs of repeated gateway inputs.
#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/common/serializer.hpp"
#include "apps/cordic/cordic_hw.hpp"
#include "apps/matmul/matmul_hw.hpp"
#include "ckpt/ckpt.hpp"
#include "common/rng.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/blocks_memory.hpp"
#include "sysgen/elision_switch.hpp"

namespace mbcosim::sysgen {
namespace {

/// Adds a design to a fresh model; returns the gateways to drive.
using Build = std::function<std::vector<GatewayIn*>(Model&)>;

struct Design {
  explicit Design(const Build& build) : model(std::make_unique<Model>("dut")) {
    inputs = build(*model);
    model->elaborate();
  }

  void apply(const std::vector<i64>& values) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs[i]->set_raw(values[i]);
    }
  }
  /// Every block output's raw value, in block creation order.
  [[nodiscard]] std::vector<i64> signals() const {
    std::vector<i64> values;
    for (const auto& block : model->blocks()) {
      for (const Signal* signal : block->outputs()) {
        values.push_back(signal->raw());
      }
    }
    return values;
  }
  [[nodiscard]] std::string signal_name(std::size_t index) const {
    for (const auto& block : model->blocks()) {
      for (const Signal* signal : block->outputs()) {
        if (index-- == 0) return signal->name();
      }
    }
    return "?";
  }
  [[nodiscard]] std::vector<unsigned char> image() const {
    ckpt::Writer writer;
    model->save_state(writer);
    return writer.take();
  }
  /// A full pass: restore the model's own image, which leaves every
  /// region pending, then step it under `values`.
  [[nodiscard]] bool full_step(const std::vector<i64>& values) {
    const std::vector<unsigned char> own = image();
    ckpt::Reader reader(own);
    if (!model->load_state(reader) || model->settled()) return false;
    apply(values);
    model->step();
    return true;
  }

  std::unique_ptr<Model> model;
  std::vector<GatewayIn*> inputs;
};

/// Uniform codes with the format's edges mixed in.
i64 random_code(Rng& rng, FixFormat format) {
  if (rng.next_below(4) == 0) {
    const i64 edges[] = {format.min_raw(), format.max_raw(), 0};
    return edges[rng.next_below(std::size(edges))];
  }
  return rng.next_in(format.min_raw(), format.max_raw());
}

/// Per-cycle input vectors in held runs of 1-48 cycles; each run
/// changes about half the inputs.
std::vector<std::vector<i64>> make_stimulus(
    Rng& rng, const std::vector<GatewayIn*>& inputs, int cycles) {
  std::vector<i64> values(inputs.size(), 0);
  std::vector<std::vector<i64>> stimulus;
  while (static_cast<int>(stimulus.size()) < cycles) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (rng.next_below(2) == 0) {
        values[i] = random_code(rng, inputs[i]->out().format());
      }
    }
    for (i64 n = rng.next_in(1, 48); n > 0; --n) stimulus.push_back(values);
  }
  stimulus.resize(static_cast<std::size_t>(cycles));
  return stimulus;
}

struct Tally {
  u64 steps = 0;
  u64 elided = 0;
  int restores = 0;
};

#define ASSERT_SAME_SIGNALS(reference, other, what, cycle)                 \
  do {                                                                     \
    const std::vector<i64> want = (reference).signals();                   \
    const std::vector<i64> got = (other).signals();                        \
    ASSERT_EQ(want.size(), got.size());                                    \
    for (std::size_t s = 0; s < want.size(); ++s) {                        \
      ASSERT_EQ(got[s], want[s]) << (what) << " signal "                   \
                                 << (reference).signal_name(s)             \
                                 << " cycle " << (cycle);                  \
    }                                                                      \
  } while (0)

/// Per-cycle inputs for a design; by default make_stimulus.
using Stimulus = std::function<std::vector<std::vector<i64>>(
    Rng&, const std::vector<GatewayIn*>&, int)>;

/// Run the candidate, the reference and (after a save taken while the
/// candidate is settled) a restored candidate on one stimulus, then once
/// more after reset(). `observe` sees the candidate after every step.
void check_elision(const Build& build, u64 seed, int cycles,
                   const std::string& what, Tally& tally,
                   const Stimulus& stimulus_for = make_stimulus,
                   const std::function<void(const Model&)>& observe = {}) {
  Design reference(build);
  Design candidate(build);
  Rng rng(seed);
  const std::vector<std::vector<i64>> stimulus =
      stimulus_for(rng, candidate.inputs, cycles);
  std::unique_ptr<Design> restored;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const auto& values = stimulus[static_cast<std::size_t>(cycle)];
    ASSERT_TRUE(reference.full_step(values)) << what << " cycle " << cycle;
    candidate.apply(values);
    ++tally.steps;
    if (candidate.model->settled()) ++tally.elided;
    candidate.model->step();
    if (observe) observe(*candidate.model);
    ASSERT_SAME_SIGNALS(reference, candidate, what, cycle);
    ASSERT_EQ(candidate.image(), reference.image())
        << what << " cycle " << cycle;
    if (restored != nullptr) {
      restored->apply(values);
      restored->model->step();
      ASSERT_SAME_SIGNALS(reference, *restored, what + " restored", cycle);
    } else if (cycle >= cycles / 4 && cycle + 1 < cycles &&
               candidate.model->settled()) {
      const std::vector<unsigned char> image = candidate.image();
      // Settle the model restored into under the next cycle's inputs
      // first: a load_state that kept it settled would skip the pass.
      restored = std::make_unique<Design>(build);
      const auto& next = stimulus[static_cast<std::size_t>(cycle) + 1];
      for (int i = 0; i < 64 && !restored->model->settled(); ++i) {
        restored->apply(next);
        restored->model->step();
      }
      ckpt::Reader reader(image);
      ASSERT_TRUE(restored->model->load_state(reader)) << what;
      ++tally.restores;
    }
  }
  EXPECT_EQ(candidate.image(), reference.image()) << what;
  if (restored != nullptr) {
    EXPECT_EQ(restored->image(), reference.image()) << what;
  }

  // reset() drops the settled state with the rest. Replaying the
  // stimulus backwards presents the last inputs first, which a reset
  // that kept the model settled would elide.
  reference.model->reset();
  candidate.model->reset();
  for (int cycle = 0; cycle < cycles / 4; ++cycle) {
    const auto& values = stimulus[static_cast<std::size_t>(cycles - 1 - cycle)];
    ASSERT_TRUE(reference.full_step(values)) << what << " after reset";
    candidate.apply(values);
    candidate.model->step();
    ASSERT_SAME_SIGNALS(reference, candidate, what + " after reset", cycle);
    ASSERT_EQ(candidate.image(), reference.image())
        << what << " after reset cycle " << cycle;
  }
  EXPECT_EQ(candidate.model->cycle(), reference.model->cycle());
}

TEST(Elision, ShippedPeripheralsMatchFullEvaluation) {
  Tally tally;
  for (unsigned p : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 16u}) {
    const Build cordic = [p](Model& m) {
      const core::FslPort io =
          apps::cordic::add_cordic_pipeline(m, p);
      return std::vector<GatewayIn*>{io.s_data, io.s_exists, io.s_control,
                                     io.m_full};
    };
    check_elision(cordic, 0xc0d1c + p, 3000, "cordic P=" + std::to_string(p),
                  tally);
  }
  for (unsigned n : {2u, 4u}) {
    const Build matmul = [n](Model& m) {
      const core::FslPort io =
          apps::matmul::add_matmul_peripheral(m, n);
      return std::vector<GatewayIn*>{io.s_data, io.s_exists, io.s_control,
                                     io.m_full};
    };
    check_elision(matmul, 0x3a7 + n, 3000, "matmul n=" + std::to_string(n),
                  tally);
  }
  // The test means something only if the candidates did elide steps and
  // were restored while settled.
  EXPECT_GT(tally.elided, tally.steps / 4);
  EXPECT_EQ(tally.restores, 11);

  // The output stage alone, 3 words wide, with its FSL_M_Full held high
  // for long stretches while new vectors keep arriving: its backlog grows
  // past the vector width, waits in the lowered queue, and drains once
  // the FIFO has room.
  constexpr std::size_t kWidth = 3;
  const Build serializer = [](Model& m) {
    const FixFormat word = FixFormat::signed_fix(32, 0);
    std::vector<GatewayIn*> inputs;
    std::vector<Signal*> values;
    for (std::size_t i = 0; i < kWidth; ++i) {
      inputs.push_back(&m.add<GatewayIn>("v" + std::to_string(i), word));
      values.push_back(&inputs.back()->out());
    }
    auto& valid = m.add<GatewayIn>("valid", FixFormat::unsigned_fix(1, 0));
    auto& full = m.add<GatewayIn>("m_full", FixFormat::unsigned_fix(1, 0));
    auto& ser = m.add<apps::VectorSerializer>("ser", values, valid.out(),
                                              &full.out());
    m.add<GatewayOut>("m_data", ser.data());
    m.add<GatewayOut>("m_write", ser.write());
    inputs.push_back(&valid);
    inputs.push_back(&full);
    return inputs;
  };
  // Stretches of 8-40 cycles: full held high (a vector every 2-5
  // cycles), then full low with a vector now and then. The values change
  // only with a new vector, so the cycles between vectors can elide.
  const Stimulus backpressure = [](Rng& rng, const std::vector<GatewayIn*>&,
                                   int cycles) {
    std::vector<std::vector<i64>> stimulus;
    std::vector<i64> values(kWidth + 2, 0);
    bool held = true;
    while (static_cast<int>(stimulus.size()) < cycles) {
      const i64 every = held ? rng.next_in(2, 5) : rng.next_in(6, 12);
      for (i64 n = rng.next_in(8, 40); n > 0; --n) {
        const bool valid = rng.next_below(static_cast<u64>(every)) == 0;
        for (std::size_t i = 0; valid && i < kWidth; ++i) {
          values[i] = rng.next_in(-(i64{1} << 31), (i64{1} << 31) - 1);
        }
        values[kWidth] = valid ? 1 : 0;
        values[kWidth + 1] = held ? 1 : 0;
        stimulus.push_back(values);
      }
      held = !held;
    }
    stimulus.resize(static_cast<std::size_t>(cycles));
    return stimulus;
  };
  // An independent reference queue: each cycle the serializer presents
  // the oldest word it holds, loses it only when the FIFO was not full,
  // and then appends a captured vector.
  std::deque<i64> expected;
  std::size_t deepest = 0;
  const auto reference = [&](const Model& m) {
    const auto raw = [&m](const std::string& name) {
      return m.find_signal(name)->raw();
    };
    const auto* ser =
        dynamic_cast<const apps::VectorSerializer*>(m.find_block("ser"));
    ASSERT_NE(ser, nullptr);
    ASSERT_EQ(raw("ser.write"), expected.empty() ? 0 : 1);
    if (!expected.empty()) {
      ASSERT_EQ(raw("ser.data"), expected.front());
      if (raw("m_full.out") == 0) expected.pop_front();
    }
    if (raw("valid.out") != 0) {
      for (std::size_t i = 0; i < kWidth; ++i) {
        expected.push_back(raw("v" + std::to_string(i) + ".out"));
      }
    }
    ASSERT_EQ(ser->backlog(), expected.size());
    deepest = std::max(deepest, expected.size());
  };
  Tally serializer_tally;
  check_elision(serializer, 0x5e7, 3000, "serializer", serializer_tally,
                backpressure, reference);
  EXPECT_GT(deepest, 2 * kWidth);
  EXPECT_GT(serializer_tally.elided, 0u);
  EXPECT_EQ(serializer_tally.restores, 1);
}

// ------------------------------------------------- random block graphs

constexpr FixFormat kFormats[] = {
    FixFormat{Signedness::kSigned, 8, 0},
    FixFormat{Signedness::kUnsigned, 8, 3},
    FixFormat{Signedness::kSigned, 12, 6},
    FixFormat{Signedness::kUnsigned, 1, 0},
};

/// A seeded random graph over every lowered block kind plus FifoBlock and
/// apps::VectorSerializer, in narrow formats. Pipeline rings (Delay,
/// latency > 0) never settle, so two graphs in three leave them out.
/// With `hubs`, one input in three is a Constant or the first GatewayIn,
/// so both fan out into many regions.
std::vector<GatewayIn*> build_random(Model& m, u64 seed, bool hubs = false) {
  Rng rng(seed);
  const bool rings = rng.next_below(3) == 0;
  std::vector<GatewayIn*> gateways;
  std::vector<Signal*> pool;
  for (std::size_t i = 0; i < std::size(kFormats) + 2; ++i) {
    const FixFormat format = kFormats[i % std::size(kFormats)];
    GatewayIn& gateway = m.add<GatewayIn>("in" + std::to_string(i), format);
    gateways.push_back(&gateway);
    pool.push_back(&gateway.out());
  }
  std::vector<Signal*> hub_signals;
  if (hubs) {
    const FixFormat format = kFormats[rng.next_below(std::size(kFormats))];
    Signal& constant =
        m.add<Constant>("hub", Fix::from_raw(format, random_code(rng, format)))
            .out();
    pool.push_back(&constant);
    hub_signals = {&constant, &gateways.front()->out()};
  }
  auto pick = [&]() -> Signal& {
    if (!hub_signals.empty() && rng.next_below(3) == 0) {
      return *hub_signals[rng.next_below(hub_signals.size())];
    }
    return *pool[rng.next_below(pool.size())];
  };
  auto format = [&] { return kFormats[rng.next_below(std::size(kFormats))]; };
  // `count` signals sharing the format of a random first one.
  auto same_format = [&](std::size_t count) {
    std::vector<Signal*> signals{&pick()};
    std::vector<Signal*> matches;
    for (Signal* signal : pool) {
      if (signal->format() == signals.front()->format()) {
        matches.push_back(signal);
      }
    }
    while (signals.size() < count) {
      signals.push_back(matches[rng.next_below(matches.size())]);
    }
    return signals;
  };
  auto latency = [&] {
    return rings && rng.next_below(2) == 0
               ? static_cast<unsigned>(rng.next_in(1, 2))
               : 0u;
  };
  auto quantization = [&] {
    return rng.next_below(2) == 0 ? Quantization::kTruncate
                                  : Quantization::kRoundHalfUp;
  };
  auto overflow = [&] {
    return rng.next_below(2) == 0 ? Overflow::kWrap : Overflow::kSaturate;
  };
  std::vector<Register*> feedback;
  const i64 blocks = rng.next_in(8, 24);
  for (i64 b = 0; b < blocks; ++b) {
    const std::string name = "b" + std::to_string(b);
    std::vector<Signal*> outputs;
    switch (rng.next_below(18)) {
      case 0:
        outputs.push_back(&m.add<AddSub>(
            name,
            rng.next_below(2) == 0 ? AddSub::Mode::kAdd
                                   : AddSub::Mode::kSubtract,
            pick(), pick(), format(), latency(), quantization(), overflow())
                               .out());
        break;
      case 1:
        outputs.push_back(&m.add<Mult>(name, pick(), pick(), format(),
                                       latency(), quantization(), overflow())
                               .out());
        break;
      case 2:
        outputs.push_back(
            &m.add<Negate>(name, pick(), format(), latency()).out());
        break;
      case 3:
        outputs.push_back(&m.add<Convert>(name, pick(), format(),
                                          quantization(), overflow(),
                                          latency())
                               .out());
        break;
      case 4:
        outputs.push_back(
            &m.add<ShiftConst>(name, pick(),
                               rng.next_below(2) == 0
                                   ? ShiftConst::Direction::kLeft
                                   : ShiftConst::Direction::kRightArithmetic,
                               static_cast<unsigned>(rng.next_in(0, 4)),
                               latency())
                 .out());
        break;
      case 5:
        outputs.push_back(
            &m.add<VariableShiftRight>(name, pick(), pick(), 7, latency())
                 .out());
        break;
      case 6:
        outputs.push_back(
            &m.add<Mux>(name, pick(),
                        same_format(static_cast<std::size_t>(
                            rng.next_in(1, 3))),
                        latency())
                 .out());
        break;
      case 7:
        outputs.push_back(
            &m.add<Relational>(name,
                               static_cast<Relational::Op>(rng.next_below(6)),
                               pick(), pick(), latency())
                 .out());
        break;
      case 8: {
        const auto op = static_cast<Logical::Op>(rng.next_below(4));
        outputs.push_back(
            &m.add<Logical>(name, op,
                            same_format(op == Logical::Op::kNot
                                            ? 1
                                            : static_cast<std::size_t>(
                                                  rng.next_in(1, 3))),
                            latency())
                 .out());
        break;
      }
      case 9: {
        Signal& a = pick();
        const i64 word = a.format().word_bits;
        const i64 width = rng.next_in(1, word);
        const i64 low = rng.next_in(0, word - width);
        outputs.push_back(&m.add<Slice>(name, a, static_cast<unsigned>(low),
                                        static_cast<unsigned>(width),
                                        latency())
                               .out());
        break;
      }
      case 10: {
        const FixFormat f = format();
        Signal* enable = rng.next_below(2) == 0 ? &pick() : nullptr;
        outputs.push_back(&m.add<Register>(name, pick(),
                                           Fix::from_raw(f, random_code(rng, f)),
                                           enable)
                               .out());
        break;
      }
      case 11: {
        // Closed later, onto a signal created after it.
        Signal* enable = rng.next_below(2) == 0 ? &pick() : nullptr;
        Register& reg = m.add<Register>(name, Fix::from_raw(format(), 0),
                                        enable);
        feedback.push_back(&reg);
        outputs.push_back(&reg.out());
        break;
      }
      case 12:
        if (rings) {
          outputs.push_back(
              &m.add<Delay>(name, pick(),
                            static_cast<unsigned>(rng.next_in(1, 3)))
                   .out());
        }
        break;
      case 13: {
        const FixFormat count{Signedness::kUnsigned, 4, 0};
        Signal* enable = rng.next_below(2) == 0 ? &pick() : nullptr;
        Signal* reset = rng.next_below(2) == 0 ? &pick() : nullptr;
        outputs.push_back(&m.add<Counter>(name, count, rng.next_in(1, 16),
                                          enable, reset)
                               .out());
        break;
      }
      case 14: {
        const FixFormat f = format();
        std::vector<Fix> words;
        for (i64 n = rng.next_in(1, 8); n > 0; --n) {
          words.push_back(Fix::from_raw(f, random_code(rng, f)));
        }
        outputs.push_back(&m.add<Rom>(name, pick(), words).out());
        break;
      }
      case 15:
        outputs.push_back(
            &m.add<SinglePortRam>(name,
                                  static_cast<std::size_t>(rng.next_in(1, 8)),
                                  format(), pick(), pick(), pick())
                 .out());
        break;
      case 16: {
        auto& fifo = m.add<FifoBlock>(
            name, static_cast<std::size_t>(rng.next_in(1, 4)), format(),
            pick(), pick(), pick());
        outputs = {&fifo.data_out(), &fifo.empty(), &fifo.full()};
        break;
      }
      default: {
        Signal* full = rng.next_below(2) == 0 ? &pick() : nullptr;
        auto& serializer = m.add<apps::VectorSerializer>(
            name, same_format(static_cast<std::size_t>(rng.next_in(1, 3))),
            pick(), full);
        outputs = {&serializer.data(), &serializer.write()};
        break;
      }
    }
    pool.insert(pool.end(), outputs.begin(), outputs.end());
  }
  for (Register* reg : feedback) reg->connect_d(pick());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    m.add<GatewayOut>("out" + std::to_string(i), *pool[i]);
  }
  return gateways;
}

TEST(Elision, RandomBlockGraphsMatchFullEvaluation) {
  Tally tally;
  for (u64 seed = 1; seed <= 200; ++seed) {
    const Build random = [seed](Model& m) { return build_random(m, seed); };
    check_elision(random, seed * 7919, 400, "graph " + std::to_string(seed),
                  tally);
  }
  EXPECT_GT(tally.elided, tally.steps / 10);
  EXPECT_GT(tally.restores, 40);
}

TEST(Elision, RandomGraphsWithWideFanoutMatchFullEvaluation) {
  Tally tally;
  for (u64 seed = 1; seed <= 100; ++seed) {
    const Build random = [seed](Model& m) {
      return build_random(m, seed, /*hubs=*/true);
    };
    check_elision(random, seed * 104729, 400,
                  "hub graph " + std::to_string(seed), tally);
  }
  EXPECT_GT(tally.elided, tally.steps / 10);
  EXPECT_GT(tally.restores, 20);
}

TEST(Elision, CordicStagesAreSeparateRegions) {
  // The constants every PE reads (`one`, and each stage's zero and shift
  // step) fan out instead of uniting the pipeline into one region; each
  // PE keeps four regions of its own (the Y/Z update with its registers,
  // the shift-amount update, the X and the valid registers).
  for (unsigned p : {1u, 4u, 16u}) {
    Model m("regions");
    apps::cordic::add_cordic_pipeline(m, p);
    m.elaborate();
    EXPECT_GE(m.region_count(), 4u * p + 8) << "P=" << p;
  }
}

TEST(Elision, UserBlocksWithoutTheHookKeepEveryCycle) {
  // The default latch_changed() is "changed": a model holding such a
  // block never settles, whatever its inputs do.
  Model m("default_hook");
  m.add<ElisionSwitch>(false);
  auto& in = m.add<GatewayIn>("in", kFormats[0]);
  m.add<GatewayOut>("out", in.out());
  for (int i = 0; i < 8; ++i) {
    m.step();
    EXPECT_FALSE(m.settled());
  }

  // Without it the same model settles after one pass, and setting an
  // input to a new value (but not to the same one) unsettles it.
  Model plain("plain");
  auto& gate = plain.add<GatewayIn>("in", kFormats[0]);
  plain.add<GatewayOut>("out", gate.out());
  plain.step();
  EXPECT_TRUE(plain.settled());
  gate.set_raw(0);
  EXPECT_TRUE(plain.settled());
  gate.set_raw(5);
  EXPECT_FALSE(plain.settled());
  plain.step();
  EXPECT_TRUE(plain.settled());
  EXPECT_EQ(gate.out().raw(), 5);
  plain.run(1'000'000'000'000);
  EXPECT_EQ(plain.cycle(), 1'000'000'000'002u);
  plain.reset();
  EXPECT_FALSE(plain.settled());
}

}  // namespace
}  // namespace mbcosim::sysgen
