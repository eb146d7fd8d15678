// Behavioural tests for each block in the standard library.
#include "sysgen/blocks_basic.hpp"

#include <gtest/gtest.h>

#include "sysgen/model.hpp"

namespace mbcosim::sysgen {
namespace {

const FixFormat kF16 = FixFormat::signed_fix(16, 0);
const FixFormat kF16_8 = FixFormat::signed_fix(16, 8);
const FixFormat kBool = FixFormat::unsigned_fix(1, 0);

TEST(Blocks, ConstantDrivesValue) {
  Model m("t");
  auto& c = m.add<Constant>("c", Fix::from_double(kF16_8, 1.5));
  auto& out = m.add<GatewayOut>("o", c.out());
  m.step();
  EXPECT_DOUBLE_EQ(out.read().to_double(), 1.5);
}

TEST(Blocks, GatewayInQuantizes) {
  Model m("t");
  auto& in = m.add<GatewayIn>("in", kF16_8);
  auto& out = m.add<GatewayOut>("o", in.out());
  in.set(1.50390625);  // one LSB above 1.5 at 2^-8 resolution
  m.step();
  EXPECT_DOUBLE_EQ(out.read().to_double(), 1.50390625);
  in.set(1000.0);  // saturates
  m.step();
  EXPECT_DOUBLE_EQ(out.read().to_double(), kF16_8.max_raw() / 256.0);
}

TEST(Blocks, AddSubModes) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", kF16);
  auto& b = m.add<GatewayIn>("b", kF16);
  auto& add = m.add<AddSub>("add", AddSub::Mode::kAdd, a.out(), b.out(), kF16);
  auto& sub = m.add<AddSub>("sub", AddSub::Mode::kSubtract, a.out(), b.out(),
                            kF16);
  auto& out_add = m.add<GatewayOut>("oa", add.out());
  auto& out_sub = m.add<GatewayOut>("os", sub.out());
  a.set_raw(100);
  b.set_raw(42);
  m.step();
  EXPECT_EQ(out_add.read_raw(), 142);
  EXPECT_EQ(out_sub.read_raw(), 58);
}

TEST(Blocks, AddSubSaturateMode) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", FixFormat::signed_fix(8, 0));
  auto& b = m.add<GatewayIn>("b", FixFormat::signed_fix(8, 0));
  auto& add = m.add<AddSub>("add", AddSub::Mode::kAdd, a.out(), b.out(),
                            FixFormat::signed_fix(8, 0), 0,
                            Quantization::kTruncate, Overflow::kSaturate);
  auto& out = m.add<GatewayOut>("o", add.out());
  a.set_raw(100);
  b.set_raw(100);
  m.step();
  EXPECT_EQ(out.read_raw(), 127);
}

TEST(Blocks, AddSubWithLatency) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", kF16);
  auto& c = m.add<Constant>("c", Fix::from_int(kF16, 1));
  auto& add = m.add<AddSub>("add", AddSub::Mode::kAdd, a.out(), c.out(), kF16,
                            /*latency=*/2);
  auto& out = m.add<GatewayOut>("o", add.out());
  a.set_raw(41);
  m.step();
  EXPECT_EQ(out.read_raw(), 0);  // still in the pipeline
  m.step();
  EXPECT_EQ(out.read_raw(), 0);
  m.step();
  EXPECT_EQ(out.read_raw(), 42);
}

TEST(Blocks, FullPrecisionPast63BitsRejectedAtElaboration) {
  // The full format is computed once, when the block lowers; the error
  // names the block.
  auto expect_rejected = [](Model& m, const std::string& block) {
    try {
      m.elaborate();
      ADD_FAILURE() << "elaborate() accepted " << block;
    } catch (const SimError& error) {
      EXPECT_NE(std::string(error.what()).find("'" + block + "'"),
                std::string::npos)
          << error.what();
    }
  };
  Model add("add");
  auto& a = add.add<GatewayIn>("a", FixFormat::signed_fix(40, 0));
  auto& b = add.add<GatewayIn>("b", FixFormat::signed_fix(40, 30));
  add.add<AddSub>("wide_sum", AddSub::Mode::kAdd, a.out(), b.out(), kF16);
  expect_rejected(add, "wide_sum");

  Model mul("mul");
  auto& x = mul.add<GatewayIn>("x", FixFormat::signed_fix(40, 35));
  mul.add<Mult>("fine_product", x.out(), x.out(), kF16);
  expect_rejected(mul, "fine_product");
}

TEST(Blocks, MultProducesProducts) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", kF16_8);
  auto& b = m.add<GatewayIn>("b", kF16_8);
  auto& mult = m.add<Mult>("m", a.out(), b.out(),
                           FixFormat::signed_fix(32, 16), /*latency=*/0);
  auto& out = m.add<GatewayOut>("o", mult.out());
  a.set(2.5);
  b.set(-3.0);
  m.step();
  EXPECT_DOUBLE_EQ(out.read().to_double(), -7.5);
}

TEST(Blocks, MultUsesEmbeddedMultipliers) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", kF16);
  auto& b = m.add<GatewayIn>("b", kF16);
  auto& small = m.add<Mult>("small", a.out(), b.out(), kF16, 0);
  EXPECT_EQ(small.resources().mult18s, 1u);
  auto& aw = m.add<GatewayIn>("aw", FixFormat::signed_fix(32, 0));
  auto& bw = m.add<GatewayIn>("bw", FixFormat::signed_fix(32, 0));
  auto& wide = m.add<Mult>("wide", aw.out(), bw.out(),
                           FixFormat::signed_fix(32, 0), 0);
  EXPECT_EQ(wide.resources().mult18s, 4u);
}

TEST(Blocks, NegateAndConvert) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", kF16_8);
  auto& neg = m.add<Negate>("n", a.out(), kF16_8);
  auto& conv = m.add<Convert>("c", a.out(), FixFormat::signed_fix(8, 0),
                              Quantization::kRoundHalfUp, Overflow::kSaturate);
  auto& out_n = m.add<GatewayOut>("on", neg.out());
  auto& out_c = m.add<GatewayOut>("oc", conv.out());
  a.set(2.75);
  m.step();
  EXPECT_DOUBLE_EQ(out_n.read().to_double(), -2.75);
  EXPECT_DOUBLE_EQ(out_c.read().to_double(), 3.0);
}

TEST(Blocks, ShiftConst) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", kF16);
  auto& left = m.add<ShiftConst>("l", a.out(), ShiftConst::Direction::kLeft, 3);
  auto& right = m.add<ShiftConst>(
      "r", a.out(), ShiftConst::Direction::kRightArithmetic, 2);
  auto& ol = m.add<GatewayOut>("ol", left.out());
  auto& og = m.add<GatewayOut>("or", right.out());
  a.set_raw(-12);
  m.step();
  EXPECT_EQ(ol.read_raw(), -96);
  EXPECT_EQ(og.read_raw(), -3);

  Model fresh("t2");
  auto& b = fresh.add<GatewayIn>("b", kF16);
  EXPECT_THROW(
      fresh.add<ShiftConst>("far", b.out(), ShiftConst::Direction::kLeft, 64),
      SimError);
}

TEST(Blocks, VariableShiftRight) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", FixFormat::signed_fix(32, 0));
  auto& amount = m.add<GatewayIn>("amt", FixFormat::unsigned_fix(6, 0));
  auto& shift = m.add<VariableShiftRight>("s", a.out(), amount.out(), 31);
  auto& out = m.add<GatewayOut>("o", shift.out());
  a.set_raw(-1024);
  amount.set_raw(3);
  m.step();
  EXPECT_EQ(out.read_raw(), -128);
  amount.set_raw(40);  // clamps to max_shift
  m.step();
  EXPECT_EQ(out.read_raw(), -1);
}

TEST(Blocks, MuxSelects) {
  Model m("t");
  auto& sel = m.add<GatewayIn>("sel", FixFormat::unsigned_fix(2, 0));
  auto& c0 = m.add<Constant>("c0", Fix::from_int(kF16, 10));
  auto& c1 = m.add<Constant>("c1", Fix::from_int(kF16, 20));
  auto& c2 = m.add<Constant>("c2", Fix::from_int(kF16, 30));
  auto& mux = m.add<Mux>("mux", sel.out(),
                         std::vector<Signal*>{&c0.out(), &c1.out(), &c2.out()});
  auto& out = m.add<GatewayOut>("o", mux.out());
  for (int i = 0; i < 3; ++i) {
    sel.set_raw(i);
    m.step();
    EXPECT_EQ(out.read_raw(), 10 * (i + 1));
  }
  sel.set_raw(3);  // out of range clamps to the last input
  m.step();
  EXPECT_EQ(out.read_raw(), 30);
}

TEST(Blocks, MuxRejectsMixedFormats) {
  Model m("t");
  auto& sel = m.add<GatewayIn>("sel", kBool);
  auto& c0 = m.add<Constant>("c0", Fix::from_int(kF16, 1));
  auto& c1 = m.add<Constant>("c1", Fix::from_raw(FixFormat::signed_fix(8, 0), 1));
  EXPECT_THROW(m.add<Mux>("mux", sel.out(),
                          std::vector<Signal*>{&c0.out(), &c1.out()}),
               SimError);
}

TEST(Blocks, RelationalAllOps) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", kF16);
  auto& b = m.add<GatewayIn>("b", kF16);
  auto& lt = m.add<Relational>("lt", Relational::Op::kLt, a.out(), b.out());
  auto& le = m.add<Relational>("le", Relational::Op::kLe, a.out(), b.out());
  auto& eq = m.add<Relational>("eq", Relational::Op::kEq, a.out(), b.out());
  auto& ne = m.add<Relational>("ne", Relational::Op::kNe, a.out(), b.out());
  auto& gt = m.add<Relational>("gt", Relational::Op::kGt, a.out(), b.out());
  auto& ge = m.add<Relational>("ge", Relational::Op::kGe, a.out(), b.out());
  auto& olt = m.add<GatewayOut>("olt", lt.out());
  auto& ole = m.add<GatewayOut>("ole", le.out());
  auto& oeq = m.add<GatewayOut>("oeq", eq.out());
  auto& one = m.add<GatewayOut>("one", ne.out());
  auto& ogt = m.add<GatewayOut>("ogt", gt.out());
  auto& oge = m.add<GatewayOut>("oge", ge.out());
  a.set_raw(-5);
  b.set_raw(3);
  m.step();
  EXPECT_TRUE(olt.read_bool());
  EXPECT_TRUE(ole.read_bool());
  EXPECT_FALSE(oeq.read_bool());
  EXPECT_TRUE(one.read_bool());
  EXPECT_FALSE(ogt.read_bool());
  EXPECT_FALSE(oge.read_bool());
}

TEST(Blocks, LogicalOps) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", FixFormat::unsigned_fix(4, 0));
  auto& b = m.add<GatewayIn>("b", FixFormat::unsigned_fix(4, 0));
  auto& and_b = m.add<Logical>("and", Logical::Op::kAnd,
                               std::vector<Signal*>{&a.out(), &b.out()});
  auto& or_b = m.add<Logical>("or", Logical::Op::kOr,
                              std::vector<Signal*>{&a.out(), &b.out()});
  auto& xor_b = m.add<Logical>("xor", Logical::Op::kXor,
                               std::vector<Signal*>{&a.out(), &b.out()});
  auto& not_b = m.add<Logical>("not", Logical::Op::kNot,
                               std::vector<Signal*>{&a.out()});
  auto& o1 = m.add<GatewayOut>("o1", and_b.out());
  auto& o2 = m.add<GatewayOut>("o2", or_b.out());
  auto& o3 = m.add<GatewayOut>("o3", xor_b.out());
  auto& o4 = m.add<GatewayOut>("o4", not_b.out());
  a.set_raw(0b1100);
  b.set_raw(0b1010);
  m.step();
  EXPECT_EQ(o1.read_raw(), 0b1000);
  EXPECT_EQ(o2.read_raw(), 0b1110);
  EXPECT_EQ(o3.read_raw(), 0b0110);
  EXPECT_EQ(o4.read_raw(), 0b0011);
}

TEST(Blocks, SliceExtractsBits) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", FixFormat::signed_fix(32, 0));
  auto& nibble = m.add<Slice>("s", a.out(), 8, 4);
  auto& out = m.add<GatewayOut>("o", nibble.out());
  a.set_raw(0x00000F00);
  m.step();
  EXPECT_EQ(out.read_raw(), 0xF);
}

TEST(Blocks, SliceRangeChecked) {
  Model m("t");
  auto& a = m.add<GatewayIn>("a", FixFormat::signed_fix(8, 0));
  EXPECT_THROW(m.add<Slice>("s", a.out(), 4, 8), SimError);
}

TEST(Blocks, RegisterWithEnable) {
  Model m("t");
  auto& d = m.add<GatewayIn>("d", kF16);
  auto& en = m.add<GatewayIn>("en", kBool);
  auto& reg = m.add<Register>("r", d.out(), Fix::from_int(kF16, 99),
                              &en.out());
  auto& out = m.add<GatewayOut>("o", reg.out());
  m.step();
  EXPECT_EQ(out.read_raw(), 99);  // initial value
  d.set_raw(5);
  en.set_bool(false);
  m.step();
  m.step();
  EXPECT_EQ(out.read_raw(), 99);  // enable low: held
  en.set_bool(true);
  m.step();  // latches 5
  m.step();
  EXPECT_EQ(out.read_raw(), 5);
}

TEST(Blocks, DelayLine) {
  Model m("t");
  auto& d = m.add<GatewayIn>("d", kF16);
  auto& delay = m.add<Delay>("dl", d.out(), 3);
  auto& out = m.add<GatewayOut>("o", delay.out());
  for (int cycle = 0; cycle < 8; ++cycle) {
    d.set_raw(cycle + 1);
    m.step();
    // Input (cycle+1) presented at cycle c emerges at cycle c+3.
    const i64 expected = cycle >= 3 ? cycle - 2 : 0;
    EXPECT_EQ(out.read_raw(), expected) << "cycle " << cycle;
  }
}

TEST(Blocks, DelayRejectsZeroCycles) {
  Model m("t");
  auto& d = m.add<GatewayIn>("d", kF16);
  EXPECT_THROW(m.add<Delay>("dl", d.out(), 0), SimError);
}

TEST(Blocks, CounterWrapsAtLimit) {
  Model m("t");
  auto& counter = m.add<Counter>("c", FixFormat::unsigned_fix(4, 0), 3);
  auto& out = m.add<GatewayOut>("o", counter.out());
  std::vector<i64> seen;
  for (int i = 0; i < 7; ++i) {
    m.step();
    seen.push_back(out.read_raw());
  }
  EXPECT_EQ(seen, (std::vector<i64>{0, 1, 2, 0, 1, 2, 0}));
}

TEST(Blocks, CounterWithEnableAndReset) {
  Model m("t");
  auto& en = m.add<GatewayIn>("en", kBool);
  auto& rst = m.add<GatewayIn>("rst", kBool);
  auto& counter = m.add<Counter>("c", FixFormat::unsigned_fix(4, 0), 10,
                                 &en.out(), &rst.out());
  auto& out = m.add<GatewayOut>("o", counter.out());
  en.set_bool(true);
  m.run(4);
  EXPECT_EQ(out.read_raw(), 3);
  en.set_bool(false);
  m.run(3);
  EXPECT_EQ(out.read_raw(), 4);  // held after the last enabled cycle
  rst.set_bool(true);
  m.step();
  m.step();
  EXPECT_EQ(out.read_raw(), 0);
}

}  // namespace
}  // namespace mbcosim::sysgen
