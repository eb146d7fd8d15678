// The library golden: one model that holds every block type of the
// sysgen library — the blocks of blocks_basic.hpp and blocks_memory.hpp,
// the apps' VectorSerializer, and user blocks on the fallback ops — run
// for 2,000 cycles of seeded gateway codes, with a reset and a restore
// every 500 cycles. Each cycle's signal raw codes
// and save_state bytes are hashed into one line of
// tests/data/sysgen_library_golden.txt, and the run must reproduce the
// file exactly. The compiled-segments oracle compares the interpreter
// with generated code on the shipped designs only; this file pins the
// library's own semantics, and its checkpoint layout, across changes to
// the kernel.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/common/serializer.hpp"
#include "ckpt/ckpt.hpp"
#include "common/rng.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/blocks_memory.hpp"

namespace mbcosim::sysgen {
namespace {

constexpr int kCycles = 2000;
constexpr u64 kSeed = 0x5eed'6a7e'11b5ull;

/// A sequential user block: an accumulator of its input, wrapped into its
/// output's format, that reports a change only when the sum moved.
class Accumulator : public Block {
 public:
  Accumulator(Model& model, std::string name, Signal& in)
      : Block(model, std::move(name)), out_(make_output("sum", in.format())) {
    connect_input(in);
  }
  [[nodiscard]] bool is_sequential() const override { return true; }
  void output_state() override { out_.drive_raw(sum_); }
  void latch() override {
    const i64 next = out_.wrap(sum_ + in(0).raw());
    changed_ = next != sum_;
    sum_ = next;
  }
  [[nodiscard]] bool latch_changed() const override { return changed_; }
  void reset() override { sum_ = 0; }
  void save_state(ckpt::Writer& writer) const override {
    writer.write_i64(sum_);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    sum_ = out_.wrap(reader.read_i64());
    return reader.ok();
  }
  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  Signal& out_;
  i64 sum_ = 0;
  bool changed_ = true;
};

/// A combinational user block: the larger of its two inputs' raw codes.
class RawMax : public Block {
 public:
  RawMax(Model& model, std::string name, Signal& a, Signal& b)
      : Block(model, std::move(name)), out_(make_output("max", a.format())) {
    connect_input(a);
    connect_input(b);
  }
  void propagate() override {
    out_.drive_raw(std::max(in(0).raw(), in(1).raw()));
  }
  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  Signal& out_;
};

struct Library {
  Model model{"library"};
  std::vector<GatewayIn*> gateways;
};

/// Every block type, wired so that each op code the library lowers to
/// runs: aligned and shifted adds, wrapping and clamped products, casts
/// that round and saturate, compares with aligning shifts, pipelines,
/// memories, a FIFO, a serializer with backpressure and the fallbacks.
void build(Library& lib) {
  Model& m = lib.model;
  const FixFormat s12_4 = FixFormat::signed_fix(12, 4);
  const FixFormat u10_2 = FixFormat::unsigned_fix(10, 2);
  const FixFormat s16_8 = FixFormat::signed_fix(16, 8);
  const FixFormat u3 = FixFormat::unsigned_fix(3, 0);
  const FixFormat u4 = FixFormat::unsigned_fix(4, 0);
  const FixFormat bit = FixFormat::unsigned_fix(1, 0);
  auto gateway = [&](const char* name, FixFormat format) -> Signal& {
    GatewayIn& in = m.add<GatewayIn>(name, format);
    lib.gateways.push_back(&in);
    return in.out();
  };
  Signal& x = gateway("x", s12_4);
  Signal& y = gateway("y", u10_2);
  Signal& z = gateway("z", s16_8);
  Signal& sel = gateway("sel", u3);
  Signal& addr = gateway("addr", u4);
  Signal& en = gateway("en", bit);
  Signal& rst = gateway("rst", bit);
  Signal& valid = gateway("valid", bit);
  Signal& full = gateway("full", bit);

  Signal& k = m.add<Constant>("k", Fix::from_double(s12_4, -2.25)).out();
  Signal& sum = m.add<AddSub>("sum", AddSub::Mode::kAdd, x, k, s12_4).out();
  Signal& diff = m.add<AddSub>("diff", AddSub::Mode::kSubtract, x, y,
                               FixFormat::signed_fix(14, 3), 2)
                     .out();
  Signal& sat = m.add<AddSub>("sat", AddSub::Mode::kAdd, x, z,
                              FixFormat::signed_fix(8, 2), 1,
                              Quantization::kRoundHalfUp, Overflow::kSaturate)
                    .out();
  Signal& prod = m.add<Mult>("prod", x, y, FixFormat::signed_fix(20, 6)).out();
  Signal& wide = m.add<Convert>("wide", z, FixFormat::signed_fix(40, 8)).out();
  Signal& clamp = m.add<Mult>("clamp", wide, wide,
                              FixFormat::signed_fix(24, 8), 0)
                      .out();
  Signal& neg = m.add<Negate>("neg", z, FixFormat::signed_fix(16, 8), 1).out();
  Signal& round = m.add<Convert>("round", z, FixFormat::signed_fix(6, 2),
                                 Quantization::kRoundHalfUp,
                                 Overflow::kSaturate)
                      .out();
  Signal& trunc = m.add<Convert>("trunc", z, FixFormat::unsigned_fix(7, 1))
                      .out();
  Signal& left = m.add<ShiftConst>("left", x, ShiftConst::Direction::kLeft, 3)
                     .out();
  Signal& right = m.add<ShiftConst>("right", z,
                                    ShiftConst::Direction::kRightArithmetic,
                                    5, 1)
                      .out();
  Signal& vshift = m.add<VariableShiftRight>("vshift", z, sel, 6).out();
  Signal& mux = m.add<Mux>("mux", sel,
                           std::vector<Signal*>{&sum, &left, &x})
                    .out();
  Signal& lt = m.add<Relational>("lt", Relational::Op::kLt, x, y).out();
  Signal& eq = m.add<Relational>("eq", Relational::Op::kEq, sum, x).out();
  Signal& ge = m.add<Relational>("ge", Relational::Op::kGe, z, diff, 1).out();
  Signal& all = m.add<Logical>("all", Logical::Op::kAnd,
                               std::vector<Signal*>{&x, &sum, &left})
                    .out();
  Signal& any = m.add<Logical>("any", Logical::Op::kOr,
                               std::vector<Signal*>{&lt, &eq, &en})
                    .out();
  Signal& odd = m.add<Logical>("odd", Logical::Op::kXor,
                               std::vector<Signal*>{&x, &mux})
                    .out();
  Signal& inv = m.add<Logical>("inv", Logical::Op::kNot,
                               std::vector<Signal*>{&z}, 1)
                    .out();
  Signal& bits = m.add<Slice>("bits", z, 3, 6).out();
  Signal& held = m.add<Register>("held", sum, Fix::from_double(s12_4, 1.5),
                                 &en)
                     .out();
  Register& acc = m.add<Register>("acc", Fix::from_raw(s16_8, 0));
  Signal& next = m.add<AddSub>("next", AddSub::Mode::kAdd, acc.out(), z,
                               s16_8)
                     .out();
  acc.connect_d(next);
  Signal& late = m.add<Delay>("late", round, 3).out();
  Signal& count = m.add<Counter>("count", u4, 11, &en, &rst).out();
  m.add<Counter>("ticks", u3, 8);
  std::vector<Fix> words;
  for (int i = 0; i < 12; ++i) {
    words.push_back(Fix::from_raw(s12_4, i * 37 - 200));
  }
  Signal& rom = m.add<Rom>("rom", addr, words).out();
  Signal& ram = m.add<SinglePortRam>("ram", 10, s12_4, addr, prod, en).out();
  auto& fifo = m.add<FifoBlock>("fifo", 3, s12_4, x, en, valid);
  auto& serial = m.add<apps::VectorSerializer>(
      "serial", std::vector<Signal*>{&sum, &held, &rom}, valid, &full);
  Signal& total = m.add<Accumulator>("total", diff).out();
  Signal& top = m.add<RawMax>("top", rom, ram).out();

  for (Signal* tap : {&sat, &clamp, &neg, &trunc, &right, &vshift, &ge, &all,
                      &any, &odd, &inv, &bits, &late, &count, &fifo.data_out(),
                      &fifo.empty(), &fifo.full(), &serial.data(),
                      &serial.write(), &total, &top}) {
    m.add<GatewayOut>("tap_" + tap->name(), *tap);
  }
}

std::string hex(u64 value) {
  char text[20];
  std::snprintf(text, sizeof text, "%016" PRIx64, value);
  return text;
}

/// One line per cycle: the cycle, then FNV-1a over every signal's raw
/// code in creation order and over the model's save_state image. Every
/// 500 cycles the model is reset and restored from that image.
std::string trace() {
  Library lib;
  build(lib);
  lib.model.elaborate();
  std::vector<const Signal*> signals;
  for (const auto& block : lib.model.blocks()) {
    for (const Signal* out : block->outputs()) signals.push_back(out);
  }
  Rng rng(kSeed);
  std::ostringstream text;
  text << "# " << signals.size() << " signals, " << lib.model.block_count()
       << " blocks\n";
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (GatewayIn* in : lib.gateways) {
      if (rng.next_below(2) == 0) {
        in->set_raw(static_cast<i64>(rng.next_u64()));
      }
    }
    lib.model.step();
    u64 raws = ckpt::kFnvBasis;
    for (const Signal* signal : signals) {
      const i64 raw = signal->raw();
      raws = ckpt::fnv1a(&raw, sizeof raw, raws);
    }
    ckpt::Writer writer;
    lib.model.save_state(writer);
    const std::vector<unsigned char> image = writer.take();
    text << cycle << ' ' << hex(raws) << ' '
         << hex(ckpt::fnv1a(image.data(), image.size())) << '\n';
    if (cycle % 500 == 499) {
      // A reset and a restore of this image leave the run as it was.
      lib.model.reset();
      ckpt::Reader reader(image);
      EXPECT_TRUE(lib.model.load_state(reader)) << "cycle " << cycle;
    }
  }
  return text.str();
}

TEST(LibraryGolden, EveryBlockTypeReproducesItsRecordedRun) {
  const std::string path =
      std::string(MBCOSIM_TEST_DATA_DIR) + "/sysgen_library_golden.txt";
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file) << path;
  std::stringstream golden;
  golden << file.rdbuf();
  std::istringstream expected(golden.str());
  std::istringstream actual(trace());
  std::string want;
  std::string got;
  int line = 0;
  while (std::getline(expected, want)) {
    ++line;
    ASSERT_TRUE(std::getline(actual, got)) << "run ends before line " << line;
    ASSERT_EQ(got, want) << "first difference at line " << line;
  }
  EXPECT_FALSE(std::getline(actual, got)) << "run longer than the golden";
}

}  // namespace
}  // namespace mbcosim::sysgen
