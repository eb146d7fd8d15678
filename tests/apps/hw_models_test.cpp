// Unit-level tests of the two application hardware models driven
// directly through their FSL gateways (no processor in the loop) — the
// "simulate the peripheral inside Simulink" workflow of the paper.
#include <gtest/gtest.h>

#include <deque>

#include "apps/cordic/cordic_hw.hpp"
#include "apps/cordic/cordic_reference.hpp"
#include "apps/matmul/matmul_hw.hpp"
#include "apps/matmul/matmul_reference.hpp"

namespace mbcosim::apps {
namespace {

/// Drives a peripheral's FSL gateways like the bridge would: a scripted
/// input stream in, collected output words out.
class GatewayDriver {
 public:
  explicit GatewayDriver(sysgen::Model& model, const core::FslPort& io)
      : model_(model), io_(io) {}

  void push_word(Word data, bool control) { input_.push_back({data, control}); }

  /// Advance one cycle, presenting the input head and collecting output.
  void cycle() {
    const bool have = !input_.empty();
    io_.s_exists->set_bool(have);
    io_.s_data->set_raw(have ? static_cast<i64>(input_.front().first) : 0);
    io_.s_control->set_bool(have && input_.front().second);
    io_.m_full->set_bool(false);
    model_.step();
    if (io_.s_read->read_bool() && have) input_.pop_front();
    if (io_.m_write->read_bool()) {
      output_.push_back(static_cast<Word>(
          static_cast<u64>(io_.m_data->read_raw()) & 0xFFFFFFFFu));
    }
  }

  void run(unsigned cycles) {
    for (unsigned i = 0; i < cycles; ++i) cycle();
  }

  std::deque<std::pair<Word, bool>> input_;
  std::vector<Word> output_;

 private:
  sysgen::Model& model_;
  const core::FslPort& io_;
};

TEST(CordicHwModel, SingleItemThroughPipeline) {
  const auto pipeline = cordic::build_cordic_pipeline(4);
  GatewayDriver driver(*pipeline.model, pipeline.io);

  const i32 x = i32(Fix::from_double(cordic::kDataFormat, 1.5).raw());
  const i32 y = i32(Fix::from_double(cordic::kDataFormat, 0.9).raw());
  driver.push_word(0, true);  // control word: s0 = 0
  driver.push_word(static_cast<Word>(x), false);
  driver.push_word(static_cast<Word>(y), false);
  driver.push_word(0, false);  // Z = 0
  driver.run(20);

  ASSERT_EQ(driver.output_.size(), 3u);  // X, Y, Z after 4 iterations
  const auto expected = cordic::cordic_iterate({x, y, 0}, 0, 4);
  EXPECT_EQ(static_cast<i32>(driver.output_[0]), expected.x);
  EXPECT_EQ(static_cast<i32>(driver.output_[1]), expected.y);
  EXPECT_EQ(static_cast<i32>(driver.output_[2]), expected.z);
}

TEST(CordicHwModel, ControlWordSetsShiftAmount) {
  const auto pipeline = cordic::build_cordic_pipeline(2);
  GatewayDriver driver(*pipeline.model, pipeline.io);
  const i32 x = i32(Fix::from_double(cordic::kDataFormat, 1.0).raw());
  const i32 y = i32(Fix::from_double(cordic::kDataFormat, -0.5).raw());
  driver.push_word(5, true);  // start at shift amount 5
  driver.push_word(static_cast<Word>(x), false);
  driver.push_word(static_cast<Word>(y), false);
  driver.push_word(0, false);
  driver.run(16);
  ASSERT_EQ(driver.output_.size(), 3u);
  const auto expected = cordic::cordic_iterate({x, y, 0}, 5, 2);
  EXPECT_EQ(static_cast<i32>(driver.output_[2]), expected.z);
}

TEST(CordicHwModel, BackToBackItemsStayOrdered) {
  const auto pipeline = cordic::build_cordic_pipeline(3);
  GatewayDriver driver(*pipeline.model, pipeline.io);
  driver.push_word(0, true);
  std::vector<cordic::CordicState> items;
  for (int i = 1; i <= 4; ++i) {
    const i32 x = i32(Fix::from_double(cordic::kDataFormat, 1.0 + i * 0.1).raw());
    const i32 y = i32(Fix::from_double(cordic::kDataFormat, 0.2 * i).raw());
    items.push_back({x, y, 0});
    driver.push_word(static_cast<Word>(x), false);
    driver.push_word(static_cast<Word>(y), false);
    driver.push_word(0, false);
  }
  driver.run(40);
  ASSERT_EQ(driver.output_.size(), 12u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto expected = cordic::cordic_iterate(items[i], 0, 3);
    EXPECT_EQ(static_cast<i32>(driver.output_[3 * i + 2]), expected.z)
        << "item " << i;
  }
}

TEST(MatmulHwModel, BlockRowProducts) {
  const unsigned n = 2;
  const auto peripheral = matmul::build_matmul_peripheral(n);
  GatewayDriver driver(*peripheral.model, peripheral.io);

  // B = [[1, 2], [3, 4]] loaded row-major as control words.
  const i32 b[2][2] = {{1, 2}, {3, 4}};
  for (unsigned k = 0; k < n; ++k) {
    for (unsigned j = 0; j < n; ++j) {
      driver.push_word(static_cast<Word>(b[k][j]), true);
    }
  }
  // Stream one row of A: [5, 7] -> row * B = [5+21, 10+28] = [26, 38].
  driver.push_word(5, false);
  driver.push_word(7, false);
  driver.run(16);
  ASSERT_EQ(driver.output_.size(), 2u);
  EXPECT_EQ(static_cast<i32>(driver.output_[0]), 26);
  EXPECT_EQ(static_cast<i32>(driver.output_[1]), 38);
}

TEST(MatmulHwModel, BLoadedOnceServesManyRows) {
  const unsigned n = 2;
  const auto peripheral = matmul::build_matmul_peripheral(n);
  GatewayDriver driver(*peripheral.model, peripheral.io);
  // B = identity: outputs must echo the A rows.
  driver.push_word(1, true);
  driver.push_word(0, true);
  driver.push_word(0, true);
  driver.push_word(1, true);
  for (const auto& row : {std::pair{3, -4}, {10, 20}, {-7, 7}}) {
    driver.push_word(static_cast<Word>(row.first), false);
    driver.push_word(static_cast<Word>(row.second), false);
  }
  driver.run(30);
  ASSERT_EQ(driver.output_.size(), 6u);
  EXPECT_EQ(static_cast<i32>(driver.output_[0]), 3);
  EXPECT_EQ(static_cast<i32>(driver.output_[1]), -4);
  EXPECT_EQ(static_cast<i32>(driver.output_[2]), 10);
  EXPECT_EQ(static_cast<i32>(driver.output_[3]), 20);
  EXPECT_EQ(static_cast<i32>(driver.output_[4]), -7);
  EXPECT_EQ(static_cast<i32>(driver.output_[5]), 7);
}

TEST(MatmulHwModel, NegativeElementsSignExtend) {
  const unsigned n = 2;
  const auto peripheral = matmul::build_matmul_peripheral(n);
  GatewayDriver driver(*peripheral.model, peripheral.io);
  // B = [[-1, 0], [0, -1]]: outputs are negated A rows (16-bit codes).
  driver.push_word(static_cast<Word>(-1) & 0xFFFF, true);
  driver.push_word(0, true);
  driver.push_word(0, true);
  driver.push_word(static_cast<Word>(-1) & 0xFFFF, true);
  driver.push_word(25, false);
  driver.push_word(static_cast<Word>(-3) & 0xFFFF, false);
  driver.run(16);
  ASSERT_EQ(driver.output_.size(), 2u);
  EXPECT_EQ(static_cast<i32>(driver.output_[0]), -25);
  EXPECT_EQ(static_cast<i32>(driver.output_[1]), 3);
}

TEST(HwModels, ResourceShapesScaleWithParameters) {
  const auto p2 = cordic::build_cordic_pipeline(2);
  const auto p8 = cordic::build_cordic_pipeline(8);
  EXPECT_GT(p8.model->block_count(), p2.model->block_count());
  EXPECT_GT(p8.model->resources().slices, p2.model->resources().slices);
  const auto m2 = matmul::build_matmul_peripheral(2);
  const auto m4 = matmul::build_matmul_peripheral(4);
  EXPECT_EQ(m2.model->resources().mult18s, 2u);
  EXPECT_EQ(m4.model->resources().mult18s, 4u);
}

}  // namespace
}  // namespace mbcosim::apps
