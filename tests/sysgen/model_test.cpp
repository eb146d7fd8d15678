// Scheduler and model-graph tests for the sysgen framework.
#include "sysgen/model.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "common/rng.hpp"
#include "sysgen/blocks_basic.hpp"

namespace mbcosim::sysgen {
namespace {

const FixFormat kF16 = FixFormat::signed_fix(16, 0);

TEST(Model, CombinationalChainEvaluatesInOneCycle) {
  Model m("chain");
  auto& in = m.add<GatewayIn>("in", kF16);
  auto& c1 = m.add<Constant>("c1", Fix::from_int(kF16, 10));
  auto& sum = m.add<AddSub>("sum", AddSub::Mode::kAdd, in.out(), c1.out(),
                            kF16);
  auto& doubled = m.add<AddSub>("dbl", AddSub::Mode::kAdd, sum.out(),
                                sum.out(), kF16);
  auto& out = m.add<GatewayOut>("out", doubled.out());
  in.set(5);
  m.step();
  EXPECT_EQ(out.read_raw(), 30);  // (5 + 10) * 2, same cycle
}

TEST(Model, TopologicalOrderIsIndependentOfInsertionOrder) {
  // Insert consumer before producer: the scheduler must still evaluate
  // producer first.
  Model m("reorder");
  auto& in = m.add<GatewayIn>("in", kF16);
  // Create the consumer's input signal lazily through a constant chain.
  auto& c = m.add<Constant>("c", Fix::from_int(kF16, 1));
  auto& level1 = m.add<AddSub>("level1", AddSub::Mode::kAdd, in.out(),
                               c.out(), kF16);
  auto& level2 = m.add<AddSub>("level2", AddSub::Mode::kAdd, level1.out(),
                               c.out(), kF16);
  auto& level3 = m.add<AddSub>("level3", AddSub::Mode::kAdd, level2.out(),
                               c.out(), kF16);
  auto& out = m.add<GatewayOut>("out", level3.out());
  in.set(0);
  m.step();
  EXPECT_EQ(out.read_raw(), 3);
}

TEST(Model, AlgebraicLoopRejected) {
  Model m("loop");
  auto& in = m.add<GatewayIn>("in", kF16);
  Register& reg = m.add<Register>("tmp", Fix::from_raw(kF16, 0));
  auto& a = m.add<AddSub>("a", AddSub::Mode::kAdd, in.out(), reg.out(), kF16);
  // Close a purely combinational loop: b depends on a, a (re-wired) on b.
  auto& b = m.add<AddSub>("b", AddSub::Mode::kAdd, a.out(), in.out(), kF16);
  reg.connect_d(b.out());
  // Registered loop is fine.
  EXPECT_NO_THROW(m.step());

  Model m2("bad");
  auto& in2 = m2.add<GatewayIn>("in", kF16);
  Signal& fwd = m2.make_signal("fwd", kF16);
  auto& x = m2.add<AddSub>("x", AddSub::Mode::kAdd, in2.out(), fwd, kF16);
  auto& y = m2.add<AddSub>("y", AddSub::Mode::kAdd, x.out(), in2.out(), kF16);
  fwd.set_driver(&y);  // simulate a direct combinational feedback wire
  // The loop detector cannot order x and y.
  EXPECT_THROW(m2.elaborate(), SimError);
}

TEST(Model, SequentialBlocksBreakCycles) {
  // Accumulator: acc <= acc + 1 every cycle.
  Model m("acc");
  auto& one = m.add<Constant>("one", Fix::from_int(kF16, 1));
  Register& acc = m.add<Register>("acc", Fix::from_raw(kF16, 0));
  auto& next = m.add<AddSub>("next", AddSub::Mode::kAdd, acc.out(), one.out(),
                             kF16);
  acc.connect_d(next.out());
  auto& out = m.add<GatewayOut>("out", acc.out());
  m.run(5);
  EXPECT_EQ(out.read_raw(), 4);  // register output lags by one cycle
  m.step();
  EXPECT_EQ(out.read_raw(), 5);
}

TEST(Model, UnconnectedFeedbackRegisterRejected) {
  Model m("incomplete");
  m.add<Register>("reg", Fix::from_raw(kF16, 0));
  EXPECT_THROW(m.elaborate(), SimError);
}

TEST(Model, ResetRestoresInitialState) {
  Model m("reset");
  auto& one = m.add<Constant>("one", Fix::from_int(kF16, 1));
  Register& acc = m.add<Register>("acc", Fix::from_raw(kF16, 0));
  auto& next = m.add<AddSub>("next", AddSub::Mode::kAdd, acc.out(), one.out(),
                             kF16);
  acc.connect_d(next.out());
  auto& out = m.add<GatewayOut>("out", acc.out());
  m.run(10);
  EXPECT_EQ(m.cycle(), 10u);
  EXPECT_EQ(out.read_raw(), 9);
  m.reset();
  EXPECT_EQ(m.cycle(), 0u);
  m.step();
  EXPECT_EQ(out.read_raw(), 0);  // accumulator restarted from its init
}

TEST(Model, DuplicateSignalNamesRejected) {
  Model m("dup");
  m.make_signal("wire", kF16);
  EXPECT_THROW(m.make_signal("wire", kF16), SimError);
}

TEST(Model, AddAfterElaborationRejected) {
  Model m("frozen");
  m.add<Constant>("c", Fix::from_int(kF16, 1));
  m.elaborate();
  EXPECT_THROW(m.add<Constant>("late", Fix::from_int(kF16, 2)), SimError);
}

TEST(Model, FindBlockAndSignal) {
  Model m("find");
  auto& c = m.add<Constant>("c", Fix::from_int(kF16, 1));
  EXPECT_EQ(m.find_block("c"), &c);
  EXPECT_EQ(m.find_block("missing"), nullptr);
  EXPECT_NE(m.find_signal("c.out"), nullptr);
  EXPECT_EQ(m.find_signal("missing"), nullptr);
}

TEST(Model, ResourcesSumOverBlocks) {
  Model m("resources");
  auto& in = m.add<GatewayIn>("in", FixFormat::signed_fix(32, 0));
  auto& c = m.add<Constant>("c", Fix::from_raw(FixFormat::signed_fix(32, 0), 1));
  m.add<AddSub>("a", AddSub::Mode::kAdd, in.out(), c.out(),
                FixFormat::signed_fix(32, 0));
  m.add<AddSub>("b", AddSub::Mode::kAdd, in.out(), c.out(),
                FixFormat::signed_fix(32, 0));
  EXPECT_EQ(m.resources().slices, 2u * slices_for_adder(32));
}

/// User combinational block, run by the kernel's fallback op: |a|,
/// saturated into the output format, written with Fix methods.
class Magnitude : public Block {
 public:
  Magnitude(Model& model, std::string name, Signal& a, FixFormat out_format)
      : Block(model, std::move(name)),
        out_(make_output("out", out_format)) {
    connect_input(a);
  }
  void propagate() override {
    const Fix a = in(0).value();
    const Fix magnitude = a.is_negative() ? a.negate_full() : a;
    out_.drive(magnitude.cast(out_.format(), Quantization::kTruncate,
                              Overflow::kSaturate));
  }
  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  Signal& out_;
};

/// User sequential block on the fallback: a wrapping running sum with
/// checkpointed state.
class Accumulator : public Block {
 public:
  Accumulator(Model& model, std::string name, Signal& in)
      : Block(model, std::move(name)),
        sum_(Fix::from_raw(in.format(), 0)),
        out_(make_output("sum", in.format())) {
    connect_input(in);
  }
  [[nodiscard]] bool is_sequential() const override { return true; }
  void output_state() override { out_.drive(sum_); }
  void latch() override {
    sum_ = sum_.add_full(in(0).value()).cast(out_.format());
  }
  void reset() override { sum_ = Fix::from_raw(out_.format(), 0); }
  void save_state(ckpt::Writer& writer) const override {
    writer.write_i64(sum_.raw());
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    sum_ = Fix::from_raw(out_.format(), reader.read_i64());
    return reader.ok();
  }
  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  Fix sum_;
  Signal& out_;
};

const FixFormat kF16_4 = FixFormat::signed_fix(16, 4);
const Fix kOffset = Fix::from_double(kF16_4, 3.25);

/// in - 3.25 -> |.| (user) -> >> 1 -> running sum (user) -> register,
/// and the halved value through a 3-cycle delay into a 2-stage adder.
struct FallbackDesign {
  std::unique_ptr<Model> model = std::make_unique<Model>("fallback");
  GatewayIn* in = nullptr;
  GatewayOut* scaled = nullptr;
  GatewayOut* sum = nullptr;
  GatewayOut* delayed = nullptr;
  GatewayOut* late = nullptr;
  GatewayOut* piped = nullptr;

  FallbackDesign() {
    Model& m = *model;
    in = &m.add<GatewayIn>("in", kF16_4);
    auto& offset = m.add<Constant>("offset", kOffset);
    auto& diff = m.add<AddSub>("diff", AddSub::Mode::kSubtract, in->out(),
                               offset.out(), kF16_4);
    auto& magnitude = m.add<Magnitude>("mag", diff.out(), kF16_4);
    auto& half = m.add<ShiftConst>(
        "half", magnitude.out(), ShiftConst::Direction::kRightArithmetic, 1);
    auto& acc = m.add<Accumulator>("acc", half.out());
    auto& reg = m.add<Register>("reg", acc.out(), Fix::from_raw(kF16_4, 0));
    auto& line = m.add<Delay>("line", half.out(), 3);
    auto& pipe = m.add<AddSub>("pipe", AddSub::Mode::kAdd, half.out(),
                               line.out(), kF16_4, /*latency=*/2);
    scaled = &m.add<GatewayOut>("o_half", half.out());
    sum = &m.add<GatewayOut>("o_sum", acc.out());
    delayed = &m.add<GatewayOut>("o_reg", reg.out());
    late = &m.add<GatewayOut>("o_line", line.out());
    piped = &m.add<GatewayOut>("o_pipe", pipe.out());
  }

  std::vector<i64> step(i64 input) {
    in->set_raw(input);
    model->step();
    return {scaled->read_raw(), sum->read_raw(), delayed->read_raw(),
            late->read_raw(), piped->read_raw()};
  }
  std::vector<unsigned char> image() const {
    ckpt::Writer writer;
    model->save_state(writer);
    return writer.take();
  }
};

TEST(Model, UserBlocksRunOnTheFallbackBetweenLoweredBlocks) {
  FallbackDesign design;
  Rng rng(17);
  Fix sum = Fix::from_raw(kF16_4, 0);
  Fix delayed = Fix::from_raw(kF16_4, 0);
  std::vector<Fix> halves;
  std::vector<Fix> sums;
  auto ago = [](const std::vector<Fix>& history, std::size_t cycles) {
    return history.size() >= cycles ? history[history.size() - cycles]
                                    : Fix::from_raw(kF16_4, 0);
  };
  for (int cycle = 0; cycle < 64; ++cycle) {
    const Fix x = Fix::from_raw(kF16_4, rng.next_in(kF16_4.min_raw(),
                                                    kF16_4.max_raw()));
    const std::vector<i64> outputs = design.step(x.raw());

    const Fix diff = x.sub_full(kOffset).cast(kF16_4);
    const Fix magnitude = (diff.is_negative() ? diff.negate_full() : diff)
                              .cast(kF16_4, Quantization::kTruncate,
                                    Overflow::kSaturate);
    const Fix half = magnitude.shift_right_keep_format(1);
    ASSERT_EQ(outputs[0], half.raw()) << "cycle " << cycle;
    ASSERT_EQ(outputs[1], sum.raw()) << "cycle " << cycle;
    ASSERT_EQ(outputs[2], delayed.raw()) << "cycle " << cycle;
    halves.push_back(half);
    ASSERT_EQ(outputs[3], ago(halves, 4).raw()) << "cycle " << cycle;
    sums.push_back(half.add_full(ago(halves, 4)).cast(kF16_4));
    ASSERT_EQ(outputs[4], ago(sums, 3).raw()) << "cycle " << cycle;
    delayed = sum;
    sum = sum.add_full(half).cast(kF16_4);
  }
}

TEST(Model, FallbackBlocksResumeIdenticallyFromACheckpoint) {
  std::vector<i64> inputs;
  Rng rng(29);
  for (int i = 0; i < 40; ++i) {
    inputs.push_back(rng.next_in(kF16_4.min_raw(), kF16_4.max_raw()));
  }
  constexpr std::size_t kSplit = 17;

  FallbackDesign unbroken;
  std::vector<unsigned char> mid_image;
  std::vector<std::vector<i64>> tail;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (i == kSplit) mid_image = unbroken.image();
    const std::vector<i64> outputs = unbroken.step(inputs[i]);
    if (i >= kSplit) tail.push_back(outputs);
  }

  FallbackDesign resumed;
  ckpt::Reader reader(mid_image);
  ASSERT_TRUE(resumed.model->load_state(reader));
  EXPECT_EQ(resumed.model->cycle(), kSplit);
  for (std::size_t i = kSplit; i < inputs.size(); ++i) {
    ASSERT_EQ(resumed.step(inputs[i]), tail[i - kSplit]) << "cycle " << i;
  }
  EXPECT_EQ(resumed.image(), unbroken.image());
}

TEST(Signal, DriveChecksFormat) {
  Signal s("wire", kF16);
  EXPECT_THROW(s.drive(Fix::from_raw(FixFormat::signed_fix(8, 0), 1)),
               SimError);
  EXPECT_NO_THROW(s.drive(Fix::from_raw(kF16, 1)));
}

TEST(Signal, SingleDriverEnforced) {
  Model m("drivers");
  auto& c1 = m.add<Constant>("c1", Fix::from_int(kF16, 1));
  Signal& wire = *m.find_signal("c1.out");
  auto& c2 = m.add<Constant>("c2", Fix::from_int(kF16, 2));
  EXPECT_THROW(wire.set_driver(&c2), SimError);
  (void)c1;
}

}  // namespace
}  // namespace mbcosim::sysgen
