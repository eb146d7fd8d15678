// CORDIC division application tests: reference model properties, software
// strategy equivalence, hardware pipeline correctness and accuracy.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/cordic/cordic_app.hpp"

namespace mbcosim::apps::cordic {
namespace {

TEST(CordicReference, ConvergesToQuotient) {
  for (const auto& [a, b] : {std::pair{1.0, 0.5}, {1.5, -1.2}, {0.7, 1.3},
                             {2.0, 3.5}, {1.0, -1.0}}) {
    const double q = cordic_divide(a, b, 28);
    EXPECT_NEAR(q, b / a, cordic_error_bound(28)) << b << "/" << a;
  }
}

TEST(CordicReference, AccuracyImprovesWithIterations) {
  const double a = 1.3;
  const double b = 0.9;
  double previous_error = 1e9;
  for (unsigned iterations : {4u, 8u, 16u, 24u}) {
    const double error = std::fabs(cordic_divide(a, b, iterations) - b / a);
    EXPECT_LE(error, previous_error + 1e-12);
    previous_error = error;
  }
  EXPECT_LT(previous_error, 1e-5);
}

TEST(CordicReference, IterateIsComposable) {
  // Running 24 iterations at once equals 6 passes of 4 iterations with
  // the shift amount carried across passes — the recirculation scheme.
  const i32 x = i32(Fix::from_double(kDataFormat, 1.25).raw());
  const i32 y = i32(Fix::from_double(kDataFormat, -0.8).raw());
  const CordicState direct = cordic_iterate({x, y, 0}, 0, 24);
  CordicState staged{x, y, 0};
  for (unsigned pass = 0; pass < 6; ++pass) {
    staged = cordic_iterate(staged, pass * 4, 4);
  }
  EXPECT_EQ(staged.x, direct.x);
  EXPECT_EQ(staged.y, direct.y);
  EXPECT_EQ(staged.z, direct.z);
}

TEST(CordicReference, ErrorBoundMonotone) {
  EXPECT_GT(cordic_error_bound(8), cordic_error_bound(16));
  EXPECT_GT(cordic_error_bound(16), cordic_error_bound(24));
}

TEST(CordicDataset, InConvergenceRegion) {
  auto [x, y] = make_cordic_dataset(50, 99);
  ASSERT_EQ(x.size(), 50u);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double a = Fix::from_raw(kDataFormat, x[i]).to_double();
    const double b = Fix::from_raw(kDataFormat, y[i]).to_double();
    EXPECT_GT(a, 0.0);
    EXPECT_LT(std::fabs(b / a), 2.0);
  }
}

struct StrategyCase {
  ShiftStrategy strategy;
  const char* name;
};

// Without a printer GoogleTest shows the parameter as its raw bytes, padding
// and string pointer included, so the listed test name changed run to run.
void PrintTo(const StrategyCase& c, std::ostream* os) { *os << c.name; }

class SwStrategies : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(SwStrategies, MatchesReferenceBitExactly) {
  auto [x, y] = make_cordic_dataset(10, 5);
  CordicRunConfig config;
  config.num_pes = 0;
  config.iterations = 24;
  config.items = 10;
  config.sw_strategy = GetParam().strategy;
  const auto result = run_cordic(config, x, y);
  const auto expected = cordic_expected(config, x, y);
  ASSERT_EQ(result.quotients_raw.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.quotients_raw[i], expected[i]) << "item " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, SwStrategies,
    ::testing::Values(StrategyCase{ShiftStrategy::kBarrelShifter, "barrel"},
                      StrategyCase{ShiftStrategy::kShiftLoop, "shiftloop"},
                      StrategyCase{ShiftStrategy::kIncremental, "incremental"}),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      return info.param.name;
    });

TEST(CordicSwStrategies, CostOrdering) {
  // Shift-loop (naive C) must be slower than the barrel-shifter version,
  // which must be slower than or equal to the incremental rewrite.
  auto [x, y] = make_cordic_dataset(5, 17);
  auto cycles_for = [&](ShiftStrategy strategy) {
    CordicRunConfig config;
    config.num_pes = 0;
    config.iterations = 24;
    config.items = 5;
    config.sw_strategy = strategy;
    return run_cordic(config, x, y).cycles;
  };
  const Cycle naive = cycles_for(ShiftStrategy::kShiftLoop);
  const Cycle barrel = cycles_for(ShiftStrategy::kBarrelShifter);
  const Cycle incremental = cycles_for(ShiftStrategy::kIncremental);
  EXPECT_GT(naive, 2 * barrel);       // shift loops dominate
  EXPECT_GT(naive, 2 * incremental);
  // The barrel-shifter and incremental rewrites do the same per-iteration
  // work (two 1-cycle shifts); they differ only in per-item setup.
  EXPECT_NEAR(double(barrel) / double(incremental), 1.0, 0.1);
}

class HwConfigurations : public ::testing::TestWithParam<unsigned> {};

TEST_P(HwConfigurations, BitExactAgainstReference) {
  const unsigned num_pes = GetParam();
  auto [x, y] = make_cordic_dataset(10, 1000 + num_pes);
  CordicRunConfig config;
  config.num_pes = num_pes;
  config.iterations = 24;
  config.items = 10;
  const auto result = run_cordic(config, x, y);
  const auto expected = cordic_expected(config, x, y);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.quotients_raw[i], expected[i])
        << "P=" << num_pes << " item " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PipelineDepths, HwConfigurations,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u));

TEST(CordicHw, ExecutionTimeDecreasesWithP) {
  auto [x, y] = make_cordic_dataset(20, 2);
  Cycle previous = ~Cycle{0};
  for (unsigned p : {2u, 4u, 6u, 8u}) {
    CordicRunConfig config;
    config.num_pes = p;
    config.iterations = 24;
    config.items = 20;
    const auto result = run_cordic(config, x, y);
    EXPECT_LT(result.cycles, previous) << "P=" << p;
    previous = result.cycles;
  }
}

TEST(CordicHw, HwBeatsNaiveSoftware) {
  // Figure 5's headline: P = 4 is several times faster than the pure
  // software implementation at 24 iterations.
  auto [x, y] = make_cordic_dataset(20, 3);
  CordicRunConfig sw;
  sw.num_pes = 0;
  sw.iterations = 24;
  sw.items = 20;
  CordicRunConfig hw = sw;
  hw.num_pes = 4;
  const auto sw_result = run_cordic(sw, x, y);
  const auto hw_result = run_cordic(hw, x, y);
  EXPECT_GT(double(sw_result.cycles) / double(hw_result.cycles), 3.0);
}

TEST(CordicHw, IterationsRoundUpToMultipleOfP) {
  // 32 iterations on P = 6 runs 6 passes = 36 effective iterations.
  auto [x, y] = make_cordic_dataset(5, 4);
  CordicRunConfig config;
  config.num_pes = 6;
  config.iterations = 32;
  config.items = 5;
  const auto result = run_cordic(config, x, y);
  const auto expected = cordic_expected(config, x, y);  // 36 iterations
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.quotients_raw[i], expected[i]);
  }
}

TEST(CordicHw, FslTrafficMatchesSchedule) {
  auto [x, y] = make_cordic_dataset(5, 6);
  CordicRunConfig config;
  config.num_pes = 4;
  config.iterations = 24;
  config.items = 5;
  const auto result = run_cordic(config, x, y);
  // Per pass: 1 control + 3*5 data words down, 3*5 results back.
  const u64 passes = cordic_passes(24, 4);
  EXPECT_EQ(result.fsl_words, passes * (1 + 15) + passes * 15);
}

TEST(CordicHw, ResourceEstimatesPopulated) {
  auto [x, y] = make_cordic_dataset(5, 7);
  CordicRunConfig config;
  config.num_pes = 4;
  config.iterations = 24;
  config.items = 5;
  const auto result = run_cordic(config, x, y);
  EXPECT_GT(result.estimated_resources.slices, 500u);
  EXPECT_EQ(result.estimated_resources.mult18s, 3u);
  EXPECT_GE(result.estimated_resources.brams, 1u);
  EXPECT_LE(result.implemented_resources.slices,
            result.estimated_resources.slices);
}

TEST(CordicApp, RejectsBadConfigurations) {
  auto [x, y] = make_cordic_dataset(5, 8);
  EXPECT_THROW((void)hw_driver_program(x, y, 24, 0), SimError);
  EXPECT_THROW((void)hw_driver_program(x, y, 24, 4, 6), SimError);   // FIFO overflow
  EXPECT_THROW((void)hw_driver_program(x, y, 24, 4, 3), SimError);   // 5 % 3 != 0
  EXPECT_THROW((void)pure_software_program(x, y, 0,
                                           ShiftStrategy::kShiftLoop),
               SimError);
  EXPECT_THROW((void)build_cordic_pipeline(0), SimError);
}

}  // namespace
}  // namespace mbcosim::apps::cordic
