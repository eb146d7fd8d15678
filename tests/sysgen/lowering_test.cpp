// Differential tests of the compiled kernel: every built-in block kind
// that lowers (all but the queue-backed FifoBlock, which runs on the
// fallback), driven with seeded random inputs in random formats (signed
// and unsigned, 1-63 bits, any binary point), every quantization and
// overflow mode, latency 0 and > 0. Each output raw code is compared,
// cycle by cycle, with the value the Fix reference methods compute.
#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cordic/cordic_hw.hpp"
#include "apps/matmul/matmul_hw.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/blocks_memory.hpp"

namespace mbcosim::sysgen {
namespace {

constexpr int kTrials = 150;
constexpr int kCycles = 10;

constexpr Quantization kQuantizations[] = {Quantization::kTruncate,
                                           Quantization::kRoundHalfUp};
constexpr Overflow kOverflows[] = {Overflow::kWrap, Overflow::kSaturate};

/// Half the formats stay narrow so that full-precision sums and products
/// mostly fit; the other half reach the 63-bit edge of the envelope.
FixFormat random_format(Rng& rng, int max_word = 63) {
  const int word = static_cast<int>(
      rng.next_in(1, rng.next_below(2) == 0 ? std::min(max_word, 24)
                                            : max_word));
  const int frac = static_cast<int>(rng.next_in(0, word));
  return FixFormat{rng.next_below(2) == 0 ? Signedness::kSigned
                                          : Signedness::kUnsigned,
                   static_cast<u8>(word), static_cast<u8>(frac)};
}

/// Uniform codes, with one draw in four taken from the format's edges.
Fix random_fix(Rng& rng, FixFormat format) {
  const i64 lo = format.min_raw();
  const i64 hi = format.max_raw();
  if (rng.next_below(4) == 0) {
    const i64 edges[] = {lo, hi, 0, lo + 1, hi - 1, hi == 0 ? 0 : 1,
                         lo == 0 ? 0 : -1};
    return Fix::from_raw(format, edges[rng.next_below(std::size(edges))]);
  }
  return Fix::from_raw(format, rng.next_in(lo, hi));
}

unsigned random_latency(Rng& rng) {
  return rng.next_below(2) == 0 ? 0u
                                : static_cast<unsigned>(rng.next_in(1, 3));
}

std::string describe(const std::vector<FixFormat>& formats) {
  std::string text;
  for (const FixFormat& format : formats) text += format.to_string() + " ";
  return text;
}

using Build = std::function<Signal&(Model&, const std::vector<Signal*>&)>;
using Reference = std::function<Fix(const std::vector<Fix>&)>;

/// Build `inputs` gateways feeding the block `build` creates, then check
/// its output against `reference` applied to the inputs presented
/// `latency` cycles earlier (zero before the pipeline fills). A block
/// whose reference throws for these formats must be rejected at
/// elaboration instead. `inspect`, if set, sees the elaborated model.
void check_function(Rng& rng, const std::vector<FixFormat>& inputs,
                    unsigned latency, bool rejected, const Build& build,
                    const Reference& reference, const std::string& what,
                    const std::function<void(const Model&)>& inspect = {}) {
  Model m("diff");
  std::vector<GatewayIn*> gateways;
  std::vector<Signal*> signals;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    GatewayIn& gateway = m.add<GatewayIn>("in" + std::to_string(i), inputs[i]);
    gateways.push_back(&gateway);
    signals.push_back(&gateway.out());
  }
  auto& out = m.add<GatewayOut>("out", build(m, signals));
  if (rejected) {
    EXPECT_THROW(m.elaborate(), SimError) << what;
    return;
  }
  m.elaborate();
  if (inspect) inspect(m);
  std::deque<i64> pipeline(latency, 0);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    std::vector<Fix> values;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      values.push_back(random_fix(rng, inputs[i]));
      gateways[i]->set_raw(values.back().raw());
    }
    m.step();
    i64 expected = reference(values).raw();
    pipeline.push_back(expected);
    expected = pipeline.front();
    pipeline.pop_front();
    ASSERT_EQ(out.read_raw(), expected)
        << what << "inputs " << describe(inputs) << "latency " << latency
        << " cycle " << cycle;
  }
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const SimError&) {
    return true;
  }
  return false;
}

// Specialised ops (DESIGN.md §15): Lowering::finish() swaps a generic op
// code for a cheaper one when the op's constants allow it. The helpers
// below let a test check that each form is chosen exactly when it
// applies, while check_function checks that both forms match Fix.

/// A format with `frac` fraction bits; `frac` is at most 24.
FixFormat format_with_frac(Rng& rng, int frac) {
  const int word = static_cast<int>(
      rng.next_in(std::max(frac, 1), rng.next_below(2) == 0 ? 24 : 63));
  return FixFormat{rng.next_below(2) == 0 ? Signedness::kSigned
                                          : Signedness::kUnsigned,
                   static_cast<u8>(word), static_cast<u8>(frac)};
}

/// Half the trials draw every format with one fraction width, so that no
/// operand or result needs a shift; the rest draw formats at random.
std::vector<FixFormat> trial_formats(Rng& rng, std::size_t count) {
  std::vector<FixFormat> formats;
  const bool aligned = rng.next_below(2) == 0;
  const int frac = static_cast<int>(rng.next_in(0, 16));
  for (std::size_t i = 0; i < count; ++i) {
    formats.push_back(aligned ? format_with_frac(rng, frac)
                              : random_format(rng));
  }
  return formats;
}

/// An inspect callback: the block's op is `special` when `chosen`, else
/// `generic`, and the other code is absent.
std::function<void(const Model&)> expect_code(bool chosen, OpCode special,
                                              OpCode generic,
                                              std::string what) {
  return [=](const Model& m) {
    EXPECT_EQ(m.op_count(chosen ? special : generic), 1u) << what;
    EXPECT_EQ(m.op_count(chosen ? generic : special), 0u) << what;
  };
}

/// Whether emit_converted fuses the conversion into the op's wrap.
bool fused(int shift, Quantization q, Overflow o) {
  return o == Overflow::kWrap && (q == Quantization::kTruncate || shift >= 0);
}

TEST(Lowering, AddSubMatchesFix) {
  Rng rng(0xadd5);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat a = random_format(rng);
    const FixFormat b = random_format(rng);
    const FixFormat out = random_format(rng);
    const auto mode = rng.next_below(2) == 0 ? AddSub::Mode::kAdd
                                             : AddSub::Mode::kSubtract;
    const bool add = mode == AddSub::Mode::kAdd;
    const bool rejected = throws([&] {
      std::ignore = add ? Fix::add_full_format(a, b)
                        : Fix::sub_full_format(a, b);
    });
    for (Quantization q : kQuantizations) {
      for (Overflow o : kOverflows) {
        const unsigned latency = random_latency(rng);
        check_function(
            rng, {a, b}, latency, rejected,
            [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
              return m.add<AddSub>("dut", mode, *in[0], *in[1], out, latency,
                                   q, o).out();
            },
            [&](const std::vector<Fix>& v) {
              return (add ? v[0].add_full(v[1]) : v[0].sub_full(v[1]))
                  .cast(out, q, o);
            },
            std::string(add ? "add" : "sub") + " -> " + out.to_string() +
                " q" + std::to_string(int(q)) + " o" + std::to_string(int(o)) +
                " ");
      }
    }
  }
}

TEST(Lowering, MultMatchesFix) {
  Rng rng(0x3a11);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat a = random_format(rng);
    const FixFormat b = random_format(rng);
    const FixFormat out = random_format(rng);
    const bool rejected =
        throws([&] { std::ignore = Fix::mul_full_format(a, b); });
    for (Quantization q : kQuantizations) {
      for (Overflow o : kOverflows) {
        const unsigned latency = random_latency(rng);
        check_function(
            rng, {a, b}, latency, rejected,
            [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
              return m.add<Mult>("dut", *in[0], *in[1], out, latency, q, o)
                  .out();
            },
            [&](const std::vector<Fix>& v) {
              return v[0].mul_full(v[1]).cast(out, q, o);
            },
            "mult -> " + out.to_string() + " q" + std::to_string(int(q)) +
                " o" + std::to_string(int(o)) + " ");
      }
    }
  }
}

TEST(Lowering, ConvertMatchesFix) {
  Rng rng(0xc0417u);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat a = random_format(rng);
    const FixFormat out = random_format(rng);
    for (Quantization q : kQuantizations) {
      for (Overflow o : kOverflows) {
        const unsigned latency = random_latency(rng);
        check_function(
            rng, {a}, latency, false,
            [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
              return m.add<Convert>("dut", *in[0], out, q, o, latency).out();
            },
            [&](const std::vector<Fix>& v) { return v[0].cast(out, q, o); },
            "convert -> " + out.to_string() + " q" + std::to_string(int(q)) +
                " o" + std::to_string(int(o)) + " ");
      }
    }
  }
}

TEST(Lowering, ConvertMatchesFixExhaustivelyOnSmallFormats) {
  // Every pair of formats up to 4 bits and every input code, so shifts
  // past the word and the saturation bounds are hit at every edge.
  std::vector<FixFormat> formats;
  for (u8 word = 1; word <= 4; ++word) {
    for (u8 frac = 0; frac <= word; ++frac) {
      formats.push_back(FixFormat::signed_fix(word, frac));
      formats.push_back(FixFormat::unsigned_fix(word, frac));
    }
  }
  for (const FixFormat& from : formats) {
    for (const FixFormat& to : formats) {
      Model m("diff");
      auto& in = m.add<GatewayIn>("in", from);
      std::vector<GatewayOut*> outs;
      for (Quantization q : kQuantizations) {
        for (Overflow o : kOverflows) {
          auto& convert = m.add<Convert>(
              "c" + std::to_string(outs.size()), in.out(), to, q, o);
          outs.push_back(&m.add<GatewayOut>(
              "o" + std::to_string(outs.size()), convert.out()));
        }
      }
      for (i64 code = from.min_raw(); code <= from.max_raw(); ++code) {
        in.set_raw(code);
        m.step();
        const Fix value = Fix::from_raw(from, code);
        std::size_t i = 0;
        for (Quantization q : kQuantizations) {
          for (Overflow o : kOverflows) {
            ASSERT_EQ(outs[i++]->read_raw(), value.cast(to, q, o).raw())
                << value << " -> " << to << " q" << int(q) << " o" << int(o);
          }
        }
      }
    }
  }
}

TEST(Lowering, NegateMatchesFix) {
  Rng rng(0x4e9u);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat a = random_format(rng);
    const FixFormat out = random_format(rng);
    const unsigned latency = random_latency(rng);
    check_function(
        rng, {a}, latency, false,
        [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
          return m.add<Negate>("dut", *in[0], out, latency).out();
        },
        [&](const std::vector<Fix>& v) {
          return v[0].negate_full().cast(out);
        },
        "negate -> " + out.to_string() + " ");
  }
}

TEST(Lowering, ShiftsMatchFix) {
  Rng rng(0x5f17);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat a = random_format(rng);
    const unsigned latency = random_latency(rng);
    const bool left = rng.next_below(2) == 0;
    const auto amount = static_cast<unsigned>(rng.next_in(0, left ? 63 : 70));
    check_function(
        rng, {a}, latency, false,
        [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
          return m.add<ShiftConst>(
                      "dut", *in[0],
                      left ? ShiftConst::Direction::kLeft
                           : ShiftConst::Direction::kRightArithmetic,
                      amount, latency)
              .out();
        },
        [&](const std::vector<Fix>& v) {
          return left ? Fix::from_raw(a, v[0].raw() << amount)
                      : v[0].shift_right_keep_format(amount);
        },
        std::string(left ? "shl " : "shr ") + std::to_string(amount) + " ");

    const FixFormat amount_format = random_format(rng, 8);
    const auto max_shift = static_cast<unsigned>(rng.next_in(0, 70));
    check_function(
        rng, {a, amount_format}, latency, false,
        [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
          return m.add<VariableShiftRight>("dut", *in[0], *in[1], max_shift,
                                           latency)
              .out();
        },
        [&](const std::vector<Fix>& v) {
          const u64 by = std::min<u64>(static_cast<u64>(v[1].raw()),
                                       max_shift);
          return v[0].shift_right_keep_format(static_cast<unsigned>(by));
        },
        "shr_var max " + std::to_string(max_shift) + " ");
  }
}

TEST(Lowering, MuxMatchesFix) {
  Rng rng(0x3a7);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat select = random_format(rng, 4);
    const FixFormat data = random_format(rng);
    const auto fan_in = static_cast<std::size_t>(rng.next_in(1, 5));
    const unsigned latency = random_latency(rng);
    std::vector<FixFormat> inputs{select};
    inputs.resize(1 + fan_in, data);
    check_function(
        rng, inputs, latency, false,
        [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
          return m.add<Mux>("dut", *in[0],
                            std::vector<Signal*>(in.begin() + 1, in.end()),
                            latency)
              .out();
        },
        [&](const std::vector<Fix>& v) {
          const u64 index = std::min<u64>(static_cast<u64>(v[0].raw()),
                                          fan_in - 1);
          return v[1 + index];
        },
        "mux " + std::to_string(fan_in) + " ");
  }
}

TEST(Lowering, RelationalMatchesFix) {
  Rng rng(0x4e1u);
  constexpr Relational::Op kOps[] = {Relational::Op::kEq, Relational::Op::kNe,
                                     Relational::Op::kLt, Relational::Op::kLe,
                                     Relational::Op::kGt, Relational::Op::kGe};
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat a = random_format(rng);
    // Half the trials compare equal formats, where equality is common.
    const FixFormat b = rng.next_below(2) == 0 ? a : random_format(rng);
    for (Relational::Op op : kOps) {
      const unsigned latency = random_latency(rng);
      check_function(
          rng, {a, b}, latency, false,
          [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
            return m.add<Relational>("dut", op, *in[0], *in[1], latency).out();
          },
          [&](const std::vector<Fix>& v) {
            const auto order = v[0].compare(v[1]);
            bool result = false;
            switch (op) {
              case Relational::Op::kEq: result = order == 0; break;
              case Relational::Op::kNe: result = order != 0; break;
              case Relational::Op::kLt: result = order < 0; break;
              case Relational::Op::kLe: result = order <= 0; break;
              case Relational::Op::kGt: result = order > 0; break;
              case Relational::Op::kGe: result = order >= 0; break;
            }
            return Fix::from_raw(FixFormat::unsigned_fix(1, 0), result);
          },
          "relational " + std::to_string(int(op)) + " ",
          // Aligning shifts only where the binary points differ.
          expect_code(a.frac_bits == b.frac_bits, OpCode::kCompareI64,
                      OpCode::kCompare, describe({a, b})));
    }
  }
}

TEST(Lowering, LogicalMatchesFix) {
  Rng rng(0x109u);
  constexpr Logical::Op kOps[] = {Logical::Op::kAnd, Logical::Op::kOr,
                                  Logical::Op::kXor, Logical::Op::kNot};
  // Indexed by Logical::Op, then the one-input copy.
  constexpr OpCode kSpecial[] = {OpCode::kAndExt, OpCode::kOrExt,
                                 OpCode::kXorExt, OpCode::kNotExt,
                                 OpCode::kWrapExt};
  constexpr OpCode kGeneric[] = {OpCode::kAnd, OpCode::kOr, OpCode::kXor,
                                 OpCode::kNot, OpCode::kWrap};
  for (int trial = 0; trial < kTrials; ++trial) {
    for (Logical::Op op : kOps) {
      const auto fan_in = op == Logical::Op::kNot
                              ? std::size_t{1}
                              : static_cast<std::size_t>(rng.next_in(1, 4));
      std::vector<FixFormat> inputs;
      for (std::size_t i = 0; i < fan_in; ++i) {
        inputs.push_back(random_format(rng));
      }
      const FixFormat out = inputs.front();
      const unsigned latency = random_latency(rng);
      check_function(
          rng, inputs, latency, false,
          [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
            return m.add<Logical>("dut", op, in, latency).out();
          },
          [&](const std::vector<Fix>& v) {
            // Bitwise on the low word bits of the output format.
            const u64 mask = low_mask64(out.word_bits);
            u64 acc = v[0].raw_bits() & mask;
            if (op == Logical::Op::kNot) acc = ~acc;
            for (std::size_t i = 1; i < v.size(); ++i) {
              const u64 operand = static_cast<u64>(v[i].raw()) & mask;
              if (op == Logical::Op::kAnd) acc &= operand;
              if (op == Logical::Op::kOr) acc |= operand;
              if (op == Logical::Op::kXor) acc ^= operand;
            }
            return Fix::from_raw(out, static_cast<i64>(acc & mask));
          },
          "logical " + std::to_string(int(op)) + " ",
          // Every op wraps into the output word without a shift, the
          // chained temps of three or more inputs with the identity wrap.
          [&](const Model& m) {
            const bool copy = op != Logical::Op::kNot && fan_in == 1;
            const std::size_t which = copy ? 4 : static_cast<std::size_t>(op);
            EXPECT_EQ(m.op_count(kSpecial[which]),
                      fan_in == 1 ? 1 : fan_in - 1);
            EXPECT_EQ(m.op_count(kGeneric[which]), 0u);
          });
    }
  }
}

TEST(Lowering, SliceMatchesFix) {
  Rng rng(0x511ceu);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat a = random_format(rng);
    const auto width = static_cast<unsigned>(rng.next_in(1, a.word_bits));
    const auto low = static_cast<unsigned>(rng.next_in(0, a.word_bits - width));
    const unsigned latency = random_latency(rng);
    check_function(
        rng, {a}, latency, false,
        [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
          return m.add<Slice>("dut", *in[0], low, width, latency).out();
        },
        [&](const std::vector<Fix>& v) {
          return Fix::from_raw(
              FixFormat::unsigned_fix(static_cast<u8>(width), 0),
              static_cast<i64>(static_cast<u64>(v[0].raw()) >> low));
        },
        "slice [" + std::to_string(low) + ", +" + std::to_string(width) +
            ") ");
  }
}

TEST(Lowering, ConstantAndGatewayInMatchFix) {
  Rng rng(0x9a7eu);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat format = random_format(rng);
    const Fix constant = random_fix(rng, format);
    Model m("diff");
    auto& c = m.add<Constant>("c", constant);
    auto& in = m.add<GatewayIn>("in", format);
    auto& out_c = m.add<GatewayOut>("oc", c.out());
    auto& out_in = m.add<GatewayOut>("oi", in.out());
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const FixFormat other = random_format(rng);
      const Fix value = random_fix(rng, other);
      const i64 raw = static_cast<i64>(rng.next_u64());
      const double real = std::ldexp(static_cast<double>(raw), -40);
      Fix expected;
      switch (rng.next_below(4)) {
        case 0:
          in.set_raw(raw);
          expected = Fix::from_raw(format, raw);
          break;
        case 1:
          in.set_fix(value);
          expected = value.cast(format, Quantization::kRoundHalfUp,
                                Overflow::kSaturate);
          break;
        case 2:
          in.set(real);
          expected = Fix::from_double(format, real);
          break;
        default:
          in.set_bool((raw & 1) != 0);
          expected = Fix::from_raw(format, raw & 1);
          break;
      }
      m.step();
      ASSERT_EQ(out_c.read_raw(), constant.raw()) << format;
      ASSERT_EQ(out_in.read_raw(), expected.raw()) << format;
      ASSERT_EQ(out_in.read(), expected);
    }
  }
}

TEST(Lowering, RegisterMatchesFix) {
  Rng rng(0x4e6u);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat d_format = random_format(rng);
    const Fix init = random_fix(rng, random_format(rng));
    const bool gated = rng.next_below(2) == 0;
    const FixFormat enable_format = random_format(rng, 3);
    Model m("diff");
    auto& d = m.add<GatewayIn>("d", d_format);
    auto& enable = m.add<GatewayIn>("en", enable_format);
    auto& reg = m.add<Register>("dut", d.out(), init,
                                gated ? &enable.out() : nullptr);
    auto& out = m.add<GatewayOut>("out", reg.out());
    Fix state = init;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const Fix value = random_fix(rng, d_format);
      const Fix en = random_fix(rng, enable_format);
      d.set_raw(value.raw());
      enable.set_raw(en.raw());
      m.step();
      ASSERT_EQ(out.read_raw(), state.raw())
          << d_format << " -> " << init.format() << " cycle " << cycle;
      if (!gated || !en.is_zero()) state = value.cast(init.format());
    }
  }
}

TEST(Lowering, DelayMatchesFix) {
  Rng rng(0xde1a7u);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat format = random_format(rng);
    const auto cycles = static_cast<unsigned>(rng.next_in(1, 5));
    Model m("diff");
    auto& d = m.add<GatewayIn>("d", format);
    auto& delay = m.add<Delay>("dut", d.out(), cycles);
    auto& out = m.add<GatewayOut>("out", delay.out());
    std::deque<i64> line(cycles, 0);
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const Fix value = random_fix(rng, format);
      d.set_raw(value.raw());
      m.step();
      ASSERT_EQ(out.read_raw(), line.front()) << format << " cycle " << cycle;
      line.pop_front();
      line.push_back(value.raw());
    }
  }
}

TEST(Lowering, CounterMatchesFix) {
  Rng rng(0xc047);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat format = random_format(rng, 12);
    const i64 limit = rng.next_in(1, format.max_raw() + 1);
    const FixFormat flag = random_format(rng, 2);
    const bool has_enable = rng.next_below(2) == 0;
    const bool has_reset = rng.next_below(2) == 0;
    Model m("diff");
    auto& enable = m.add<GatewayIn>("en", flag);
    auto& reset = m.add<GatewayIn>("rst", flag);
    auto& counter =
        m.add<Counter>("dut", format, limit,
                       has_enable ? &enable.out() : nullptr,
                       has_reset ? &reset.out() : nullptr);
    auto& out = m.add<GatewayOut>("out", counter.out());
    i64 value = 0;
    for (int cycle = 0; cycle < 3 * kCycles; ++cycle) {
      const Fix en = random_fix(rng, flag);
      // Resets are rare so the count gets somewhere.
      const Fix rst = rng.next_below(8) == 0 ? random_fix(rng, flag)
                                             : Fix::from_raw(flag, 0);
      enable.set_raw(en.raw());
      reset.set_raw(rst.raw());
      m.step();
      ASSERT_EQ(out.read_raw(), Fix::from_raw(format, value).raw())
          << format << " limit " << limit << " cycle " << cycle;
      if (has_reset && !rst.is_zero()) {
        value = 0;
      } else if (!has_enable || !en.is_zero()) {
        value = (value + 1) % limit;
      }
    }
  }
}

TEST(Lowering, RomMatchesFix) {
  Rng rng(0x40u);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat word = random_format(rng);
    const FixFormat address = random_format(rng, 4);
    std::vector<Fix> contents;
    for (i64 i = rng.next_in(1, 8); i > 0; --i) {
      contents.push_back(random_fix(rng, word));
    }
    Model m("diff");
    auto& addr = m.add<GatewayIn>("addr", address);
    auto& rom = m.add<Rom>("dut", addr.out(), contents);
    auto& out = m.add<GatewayOut>("out", rom.out());
    i64 state = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const Fix at = random_fix(rng, address);
      addr.set_raw(at.raw());
      m.step();
      ASSERT_EQ(out.read_raw(), state) << word << " cycle " << cycle;
      const u64 index =
          std::min<u64>(static_cast<u64>(at.raw()), contents.size() - 1);
      state = contents[index].raw();
    }
  }
}

TEST(Lowering, SinglePortRamMatchesFix) {
  Rng rng(0x4a3u);
  for (int trial = 0; trial < kTrials; ++trial) {
    const FixFormat word = random_format(rng);
    const FixFormat data = random_format(rng);
    const FixFormat address = random_format(rng, 4);
    const FixFormat flag = random_format(rng, 2);
    const auto depth = static_cast<std::size_t>(rng.next_in(1, 8));
    Model m("diff");
    auto& addr = m.add<GatewayIn>("addr", address);
    auto& din = m.add<GatewayIn>("din", data);
    auto& we = m.add<GatewayIn>("we", flag);
    auto& ram = m.add<SinglePortRam>("dut", depth, word, addr.out(),
                                     din.out(), we.out());
    auto& out = m.add<GatewayOut>("out", ram.out());
    std::vector<Fix> cells(depth, Fix::from_raw(word, 0));
    Fix state = Fix::from_raw(word, 0);
    for (int cycle = 0; cycle < 2 * kCycles; ++cycle) {
      const Fix at = random_fix(rng, address);
      const Fix value = random_fix(rng, data);
      const Fix write = random_fix(rng, flag);
      addr.set_raw(at.raw());
      din.set_raw(value.raw());
      we.set_raw(write.raw());
      m.step();
      ASSERT_EQ(out.read_raw(), state.raw()) << word << " cycle " << cycle;
      const auto index = static_cast<std::size_t>(
          std::min<u64>(static_cast<u64>(at.raw()), depth - 1));
      state = cells[index];
      if (!write.is_zero()) cells[index] = value.cast(word);
    }
    for (std::size_t i = 0; i < depth; ++i) {
      EXPECT_EQ(ram.cell(i).raw(), cells[i].raw());
    }
  }
}


TEST(Lowering, WrapExtendMatchesWrapForEveryNorm) {
  Rng rng(0xe87e);
  for (int norm = 0; norm < 64; ++norm) {
    for (const bool is_signed : {true, false}) {
      Wrap wrap;
      wrap.norm = static_cast<u8>(norm);
      wrap.keep = is_signed ? i64{-1}
                            : static_cast<i64>(low_mask64(64 - norm));
      ASSERT_TRUE(wrap.extends());
      for (int i = 0; i < 200; ++i) {
        const auto code = static_cast<i64>(rng.next_u64());
        ASSERT_EQ(wrap.extend(code), wrap(code))
            << "norm " << norm << (is_signed ? " signed" : " unsigned");
      }
    }
  }
  EXPECT_FALSE(Wrap::into(FixFormat::signed_fix(16, 0), 1).extends());
  EXPECT_FALSE(Wrap::into(FixFormat::signed_fix(16, 0), -1).extends());
}

TEST(Lowering, SpecialisedAddSubAndMultAreChosenAndMatchFix) {
  Rng rng(0x5bec);
  int chosen_count[2] = {0, 0};
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto formats = trial_formats(rng, 3);
    const FixFormat a = formats[0];
    const FixFormat b = formats[1];
    const FixFormat out = formats[2];
    const Quantization q = kQuantizations[rng.next_below(2)];
    const Overflow o = kOverflows[rng.next_below(2)];
    const unsigned latency = random_latency(rng);
    const std::string what = describe(formats) + "q" +
                             std::to_string(int(q)) + " o" +
                             std::to_string(int(o)) + " ";

    const bool add = rng.next_below(2) == 0;
    const bool sum_rejected = throws([&] {
      std::ignore = add ? Fix::add_full_format(a, b)
                        : Fix::sub_full_format(a, b);
    });
    std::function<void(const Model&)> inspect;
    if (!sum_rejected) {
      const FixFormat full = add ? Fix::add_full_format(a, b)
                                 : Fix::sub_full_format(a, b);
      const int shift = int(out.frac_bits) - int(full.frac_bits);
      // An unfused conversion leaves the add with the identity wrap.
      const bool chosen = full.frac_bits == a.frac_bits &&
                          full.frac_bits == b.frac_bits &&
                          (!fused(shift, q, o) || shift == 0);
      ++chosen_count[chosen];
      inspect = expect_code(chosen, add ? OpCode::kAddExt : OpCode::kSubExt,
                            add ? OpCode::kAdd : OpCode::kSub, what);
    }
    check_function(
        rng, {a, b}, latency, sum_rejected,
        [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
          return m.add<AddSub>("dut",
                               add ? AddSub::Mode::kAdd
                                   : AddSub::Mode::kSubtract,
                               *in[0], *in[1], out, latency, q, o)
              .out();
        },
        [&](const std::vector<Fix>& v) {
          return (add ? v[0].add_full(v[1]) : v[0].sub_full(v[1]))
              .cast(out, q, o);
        },
        std::string(add ? "add " : "sub ") + what, inspect);

    // A product whose word needs no clamp is one kMul.
    const bool product_rejected =
        throws([&] { std::ignore = Fix::mul_full_format(a, b); });
    inspect = {};
    if (!product_rejected && a.word_bits + b.word_bits <= 63) {
      const FixFormat full = Fix::mul_full_format(a, b);
      const int shift = int(out.frac_bits) - int(full.frac_bits);
      inspect = expect_code(!fused(shift, q, o) || shift == 0,
                            OpCode::kMulExt, OpCode::kMul, what);
    }
    check_function(
        rng, {a, b}, latency, product_rejected,
        [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
          return m.add<Mult>("dut", *in[0], *in[1], out, latency, q, o).out();
        },
        [&](const std::vector<Fix>& v) {
          return v[0].mul_full(v[1]).cast(out, q, o);
        },
        "mult " + what, inspect);
  }
  // Both forms were exercised.
  EXPECT_GT(chosen_count[0], 10);
  EXPECT_GT(chosen_count[1], 10);
}

TEST(Lowering, SpecialisedConvertAndNegateAreChosenAndMatchFix) {
  Rng rng(0xc0e7);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto formats = trial_formats(rng, 2);
    const FixFormat a = formats[0];
    const FixFormat out = formats[1];
    const Quantization q = kQuantizations[rng.next_below(2)];
    const Overflow o = kOverflows[rng.next_below(2)];
    const unsigned latency = random_latency(rng);
    const int shift = int(out.frac_bits) - int(a.frac_bits);
    const std::string what = describe(formats) + "q" +
                             std::to_string(int(q)) + " o" +
                             std::to_string(int(o)) + " ";

    // An unfused conversion is a kCast alone: no kWrap at all.
    std::function<void(const Model&)> inspect;
    if (fused(shift, q, o)) {
      inspect = expect_code(shift == 0, OpCode::kWrapExt, OpCode::kWrap,
                            what);
    } else {
      inspect = [&](const Model& m) {
        EXPECT_EQ(m.op_count(OpCode::kWrap) + m.op_count(OpCode::kWrapExt),
                  0u)
            << what;
      };
    }
    check_function(
        rng, {a}, latency, false,
        [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
          return m.add<Convert>("dut", *in[0], out, q, o, latency).out();
        },
        [&](const std::vector<Fix>& v) { return v[0].cast(out, q, o); },
        "convert " + what, inspect);

    check_function(
        rng, {a}, latency, false,
        [&](Model& m, const std::vector<Signal*>& in) -> Signal& {
          return m.add<Negate>("dut", *in[0], out, latency).out();
        },
        [&](const std::vector<Fix>& v) {
          return v[0].negate_full().cast(out);
        },
        "negate " + what,
        expect_code(shift == 0, OpCode::kNegExt, OpCode::kNeg, what));
  }
}

TEST(Lowering, SpecialisedRegistersAreChosenAndMatchFix) {
  Rng rng(0x4e67);
  int chosen_count[2] = {0, 0};
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto formats = trial_formats(rng, 2);
    const FixFormat d_format = formats[0];
    const Fix init = random_fix(rng, formats[1]);
    const bool gated = rng.next_below(2) == 0;
    const FixFormat enable_format = random_format(rng, 3);
    Model m("diff");
    auto& d = m.add<GatewayIn>("d", d_format);
    auto& enable = m.add<GatewayIn>("en", enable_format);
    auto& reg = m.add<Register>("dut", d.out(), init,
                                gated ? &enable.out() : nullptr);
    auto& out = m.add<GatewayOut>("out", reg.out());
    m.elaborate();
    const std::string what = describe(formats) + (gated ? "gated" : "");
    const bool chosen = d_format.frac_bits == init.format().frac_bits;
    ++chosen_count[chosen];
    const OpCode special =
        gated ? OpCode::kRegisterExt : OpCode::kRegisterAlways;
    EXPECT_EQ(m.op_count(chosen ? special : OpCode::kRegister), 1u) << what;
    EXPECT_EQ(m.op_count(OpCode::kRegisterExt) +
                  m.op_count(OpCode::kRegisterAlways) +
                  m.op_count(OpCode::kRegister),
              1u)
        << what;
    Fix state = init;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const Fix value = random_fix(rng, d_format);
      const Fix en = random_fix(rng, enable_format);
      d.set_raw(value.raw());
      enable.set_raw(en.raw());
      m.step();
      ASSERT_EQ(out.read_raw(), state.raw()) << what << " cycle " << cycle;
      if (!gated || !en.is_zero()) state = value.cast(init.format());
    }
  }
  EXPECT_GT(chosen_count[0], 10);
  EXPECT_GT(chosen_count[1], 10);
}

/// The op codes that pay for shifts: an aligning shift in a compare, or a
/// wrap that moves bits.
constexpr OpCode kShiftedCodes[] = {
    OpCode::kCompare, OpCode::kWrap, OpCode::kAdd, OpCode::kSub,
    OpCode::kMul,     OpCode::kNeg,  OpCode::kAnd, OpCode::kOr,
    OpCode::kXor,     OpCode::kNot,  OpCode::kRegister};

std::size_t shifted_ops(const Model& m) {
  std::size_t count = 0;
  for (const OpCode code : kShiftedCodes) count += m.op_count(code);
  return count;
}

TEST(Lowering, PaperDesignsRunNoShiftedCompareOrWrap) {
  for (const unsigned pes : {1u, 2u, 4u, 8u}) {
    const auto pipeline = apps::cordic::build_cordic_pipeline(pes);
    EXPECT_EQ(shifted_ops(*pipeline.model), 0u) << "CORDIC P=" << pes;
    EXPECT_GT(pipeline.model->op_count(OpCode::kCompareI64), 0u);
    EXPECT_GT(pipeline.model->op_count(OpCode::kRegisterAlways), 0u);
  }
  for (const unsigned block : {2u, 4u}) {
    const auto peripheral = apps::matmul::build_matmul_peripheral(block);
    EXPECT_EQ(shifted_ops(*peripheral.model), 0u) << "matmul n=" << block;
    EXPECT_GT(peripheral.model->op_count(OpCode::kMulExt), 0u);
  }
}

/// A user block whose own lowering breaks one rule the partition into
/// regions relies on (DESIGN.md §15, "Activity-driven passes"), or names
/// a slot outside its model's arena (DESIGN.md §15, "The slot arena").
class BadLowering : public Block {
 public:
  enum class Rule {
    kStateOpInPhase0,
    kPhase0ReadsInput,
    kTwoWriters,
    kOperandOutsideArena,
    kResultOutsideArena,
    kMuxSourceOutsideArena,
    kCellsOutsideArena,
  };

  BadLowering(Model& model, Signal& in, Rule rule)
      : Block(model, "bad"),
        rule_(rule),
        out_(make_output("out", in.format())),
        state_(model.make_slots(1)) {
    connect_input(in);
  }

  void lower(Lowering& lowering) override {
    const u32 in_slot = in(0).slot();
    const u32 outside = state_ + 1000;
    switch (rule_) {
      case Rule::kStateOpInPhase0:
        lowering.emit(Phase::kOutput, {.code = OpCode::kRegister,
                                       .dst = state_,
                                       .a = in_slot,
                                       .c = Lowering::one()});
        break;
      case Rule::kPhase0ReadsInput:
        lowering.emit(Phase::kOutput, {.code = OpCode::kCopy,
                                       .dst = out_.slot(),
                                       .a = in_slot});
        break;
      case Rule::kTwoWriters:
        lowering.emit(Phase::kPropagate, {.code = OpCode::kCopy,
                                          .dst = out_.slot(),
                                          .a = in_slot});
        lowering.emit(Phase::kPropagate, {.code = OpCode::kNot,
                                          .dst = out_.slot(),
                                          .a = in_slot});
        break;
      case Rule::kOperandOutsideArena:
        lowering.emit(Phase::kPropagate, {.code = OpCode::kAdd,
                                          .dst = out_.slot(),
                                          .a = in_slot,
                                          .b = outside});
        break;
      case Rule::kResultOutsideArena:
        lowering.emit(Phase::kPropagate,
                      {.code = OpCode::kCopy, .dst = outside, .a = in_slot});
        break;
      case Rule::kMuxSourceOutsideArena:
        lowering.emit(Phase::kPropagate,
                      {.code = OpCode::kMux,
                       .ext = lowering.mux_sources({in_slot, outside}),
                       .k = 1,
                       .dst = out_.slot(),
                       .a = in_slot});
        break;
      case Rule::kCellsOutsideArena:
        // A RAM whose last cell lies past the arena's end.
        lowering.emit(Phase::kOutput,
                      {.code = OpCode::kCopy, .dst = out_.slot(), .a = state_});
        lowering.emit(Phase::kLatch, {.code = OpCode::kRam,
                                      .ext = state_,
                                      .k = 1000,
                                      .dst = state_,
                                      .a = in_slot,
                                      .b = in_slot,
                                      .c = Lowering::one()});
        break;
    }
  }

 private:
  Rule rule_;
  Signal& out_;
  u32 state_;
};

TEST(Lowering, RejectsOpsThatBreakThePartitionRules) {
  for (const auto rule : {BadLowering::Rule::kStateOpInPhase0,
                          BadLowering::Rule::kPhase0ReadsInput,
                          BadLowering::Rule::kTwoWriters}) {
    Model m("bad");
    auto& in = m.add<GatewayIn>("in", FixFormat::signed_fix(8, 0));
    m.add<BadLowering>(in.out(), rule);
    EXPECT_THROW(m.elaborate(), SimError) << static_cast<int>(rule);
  }
}

TEST(Lowering, RejectsSlotsOutsideTheArena) {
  for (const auto rule : {BadLowering::Rule::kOperandOutsideArena,
                          BadLowering::Rule::kResultOutsideArena,
                          BadLowering::Rule::kMuxSourceOutsideArena,
                          BadLowering::Rule::kCellsOutsideArena}) {
    Model m("bad");
    auto& in = m.add<GatewayIn>("in", FixFormat::signed_fix(8, 0));
    m.add<BadLowering>(in.out(), rule);
    EXPECT_THROW(m.elaborate(), SimError) << static_cast<int>(rule);
  }
}

TEST(Lowering, TheArenaTakesNoSlotAfterElaboration) {
  Model m("closed");
  auto& in = m.add<GatewayIn>("in", FixFormat::signed_fix(8, 0));
  m.add<GatewayOut>("out", in.out());
  (void)m.make_slots(4);
  m.elaborate();
  EXPECT_THROW((void)m.make_slots(1), SimError);
  EXPECT_THROW(m.make_signal("late", FixFormat::signed_fix(8, 0)), SimError);
}

}  // namespace
}  // namespace mbcosim::sysgen
