// Tests for the RNG and Expected utilities.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace mbcosim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextInCoversRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const i64 v = rng.next_in(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, ReseedRestoresSequence) {
  Rng rng(55);
  const u64 first = rng.next_u64();
  rng.next_u64();
  rng.reseed(55);
  EXPECT_EQ(rng.next_u64(), first);
}

TEST(Expected, HoldsValue) {
  Expected<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
}

TEST(Expected, HoldsError) {
  auto failed = Expected<int>::failure("boom");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error(), "boom");
  EXPECT_THROW((void)failed.value(), SimError);
}

TEST(Expected, MoveOutValue) {
  Expected<std::string> ok(std::string("payload"));
  const std::string moved = std::move(ok).value();
  EXPECT_EQ(moved, "payload");
}

}  // namespace
}  // namespace mbcosim
