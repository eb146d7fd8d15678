// Unit and property tests for the fixed-point arithmetic library.
#include "common/fixed_point.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace mbcosim {
namespace {

TEST(FixFormat, ValidatesWordBits) {
  EXPECT_THROW((FixFormat{Signedness::kSigned, 0, 0}.validate()), SimError);
  EXPECT_THROW((FixFormat{Signedness::kSigned, 64, 0}.validate()), SimError);
  EXPECT_NO_THROW((FixFormat{Signedness::kSigned, 63, 0}.validate()));
  EXPECT_NO_THROW((FixFormat{Signedness::kUnsigned, 1, 0}.validate()));
}

TEST(FixFormat, ValidatesFracBits) {
  EXPECT_THROW((FixFormat{Signedness::kSigned, 8, 9}.validate()), SimError);
  EXPECT_NO_THROW((FixFormat{Signedness::kSigned, 8, 8}.validate()));
}

TEST(FixFormat, RawRanges) {
  const FixFormat s8 = FixFormat::signed_fix(8, 0);
  EXPECT_EQ(s8.max_raw(), 127);
  EXPECT_EQ(s8.min_raw(), -128);
  const FixFormat u8f = FixFormat::unsigned_fix(8, 0);
  EXPECT_EQ(u8f.max_raw(), 255);
  EXPECT_EQ(u8f.min_raw(), 0);
}

TEST(FixFormat, Resolution) {
  EXPECT_DOUBLE_EQ(FixFormat::signed_fix(16, 8).resolution(), 1.0 / 256.0);
  EXPECT_DOUBLE_EQ(FixFormat::signed_fix(16, 0).resolution(), 1.0);
}

TEST(FixFormat, Names) {
  EXPECT_EQ(FixFormat::signed_fix(32, 24).to_string(), "Fix32_24");
  EXPECT_EQ(FixFormat::unsigned_fix(6, 0).to_string(), "UFix6_0");
}

TEST(Fix, FromRawMasksAndExtends) {
  const Fix v = Fix::from_raw(FixFormat::signed_fix(8, 0), 0x1FF);
  EXPECT_EQ(v.raw(), -1);  // low 8 bits = 0xFF, sign-extended
  const Fix u = Fix::from_raw(FixFormat::unsigned_fix(8, 0), 0x1FF);
  EXPECT_EQ(u.raw(), 0xFF);
}

TEST(Fix, FromDoubleRoundsAndSaturates) {
  const FixFormat f = FixFormat::signed_fix(8, 4);
  EXPECT_EQ(Fix::from_double(f, 1.5).raw(), 24);
  EXPECT_EQ(Fix::from_double(f, 100.0).raw(), 127);   // saturate high
  EXPECT_EQ(Fix::from_double(f, -100.0).raw(), -128); // saturate low
}

TEST(Fix, FromIntRejectsOverflow) {
  const FixFormat f = FixFormat::signed_fix(8, 0);
  EXPECT_NO_THROW(Fix::from_int(f, 127));
  EXPECT_THROW(Fix::from_int(f, 128), SimError);
  EXPECT_THROW(Fix::from_int(FixFormat::signed_fix(8, 2), 1), SimError);
}

TEST(Fix, ToDoubleRoundTrip) {
  const FixFormat f = FixFormat::signed_fix(32, 24);
  for (double value : {0.0, 1.0, -1.0, 0.5, -0.25, 100.125, -99.875}) {
    EXPECT_DOUBLE_EQ(Fix::from_double(f, value).to_double(), value);
  }
}

TEST(Fix, RawBitsTruncatesToWord) {
  const Fix v = Fix::from_raw(FixFormat::signed_fix(16, 0), -1);
  EXPECT_EQ(v.raw_bits(), 0xFFFFu);
}

TEST(Fix, AddFullGrowsFormat) {
  const FixFormat f = FixFormat::signed_fix(8, 4);
  const Fix a = Fix::from_double(f, 7.5);
  const Fix b = Fix::from_double(f, 7.25);
  const Fix sum = a.add_full(b);
  EXPECT_DOUBLE_EQ(sum.to_double(), 14.75);  // would overflow Fix8_4
  EXPECT_GE(sum.format().word_bits, 9);
}

TEST(Fix, AddFullMixedBinaryPoints) {
  const Fix a = Fix::from_double(FixFormat::signed_fix(8, 4), 1.5);
  const Fix b = Fix::from_double(FixFormat::signed_fix(8, 2), 2.25);
  EXPECT_DOUBLE_EQ(a.add_full(b).to_double(), 3.75);
}

TEST(Fix, AddFullMixedSignedness) {
  const Fix a = Fix::from_raw(FixFormat::unsigned_fix(8, 0), 200);
  const Fix b = Fix::from_raw(FixFormat::signed_fix(8, 0), -100);
  EXPECT_DOUBLE_EQ(a.add_full(b).to_double(), 100.0);
}

TEST(Fix, SubFullIsSigned) {
  const Fix a = Fix::from_raw(FixFormat::unsigned_fix(8, 0), 10);
  const Fix b = Fix::from_raw(FixFormat::unsigned_fix(8, 0), 20);
  const Fix diff = a.sub_full(b);
  EXPECT_EQ(diff.format().sign, Signedness::kSigned);
  EXPECT_DOUBLE_EQ(diff.to_double(), -10.0);
}

TEST(Fix, MulFullExact) {
  const FixFormat f = FixFormat::signed_fix(16, 8);
  const Fix a = Fix::from_double(f, 3.5);
  const Fix b = Fix::from_double(f, -2.25);
  EXPECT_DOUBLE_EQ(a.mul_full(b).to_double(), -7.875);
}

TEST(Fix, NegateFull) {
  const FixFormat f = FixFormat::signed_fix(8, 0);
  const Fix v = Fix::from_int(f, -128);
  // Negating the most negative value needs the extra bit.
  EXPECT_DOUBLE_EQ(v.negate_full().to_double(), 128.0);
}

TEST(Fix, AddSubFullRejectWordsPast63Bits) {
  // Aligning 2^38 (Fix40_0) with Fix40_30 needs 40 + 30 + 1 bits.
  const Fix a = Fix::from_raw(FixFormat::signed_fix(40, 0), i64{1} << 38);
  const Fix b = Fix::from_raw(FixFormat::signed_fix(40, 30), 0);
  EXPECT_THROW(a.add_full(b), SimError);
  EXPECT_THROW(a.sub_full(b), SimError);
  EXPECT_THROW(Fix::add_full_format(a.format(), b.format()), SimError);
  // 62 + 1 carry bit is the widest exact word.
  const Fix c = Fix::from_raw(FixFormat::signed_fix(62, 0), i64{1} << 60);
  EXPECT_EQ(c.add_full(c).format().word_bits, 63);
  EXPECT_EQ(c.add_full(c).raw(), i64{1} << 61);
}

TEST(Fix, MulFullRejectsFractionBitsPast63) {
  const FixFormat f = FixFormat::signed_fix(40, 35);
  const Fix one = Fix::from_double(f, 1.0);
  EXPECT_THROW(one.mul_full(one), SimError);
  EXPECT_THROW(Fix::mul_full_format(f, f), SimError);
}

TEST(Fix, MulFullClampsCappedWords) {
  // 40 + 40 word bits cap at 63; the product is clamped to that range.
  const FixFormat f = FixFormat::signed_fix(40, 0);
  const Fix big = Fix::from_raw(f, f.max_raw());
  const Fix product = big.mul_full(big);
  EXPECT_EQ(product.format().word_bits, 63);
  EXPECT_EQ(product.raw(), product.format().max_raw());
  EXPECT_EQ(big.mul_full(Fix::from_raw(f, f.min_raw())).raw(),
            product.format().min_raw());
}

TEST(Fix, ShiftRightExactKeepsValuePrecision) {
  const Fix v = Fix::from_double(FixFormat::signed_fix(16, 8), 5.0);
  EXPECT_DOUBLE_EQ(v.shift_right_exact(3).to_double(), 0.625);
}

TEST(Fix, ShiftLeftExact) {
  const Fix v = Fix::from_double(FixFormat::signed_fix(16, 8), 5.0);
  EXPECT_DOUBLE_EQ(v.shift_left_exact(3).to_double(), 40.0);
}

TEST(Fix, ShiftRightKeepFormatTruncatesTowardNegInfinity) {
  const FixFormat f = FixFormat::signed_fix(8, 0);
  EXPECT_EQ(Fix::from_int(f, -3).shift_right_keep_format(1).raw(), -2);
  EXPECT_EQ(Fix::from_int(f, 3).shift_right_keep_format(1).raw(), 1);
  EXPECT_EQ(Fix::from_int(f, -1).shift_right_keep_format(63).raw(), -1);
}

TEST(Fix, CastTruncate) {
  const Fix v = Fix::from_double(FixFormat::signed_fix(16, 8), 1.99609375);
  const Fix c = v.cast(FixFormat::signed_fix(16, 4));
  EXPECT_DOUBLE_EQ(c.to_double(), 1.9375);  // floor to 1/16
}

TEST(Fix, CastRoundHalfUp) {
  const FixFormat out = FixFormat::signed_fix(16, 0);
  EXPECT_DOUBLE_EQ(Fix::from_double(FixFormat::signed_fix(16, 8), 1.5)
                       .cast(out, Quantization::kRoundHalfUp)
                       .to_double(),
                   2.0);
  EXPECT_DOUBLE_EQ(Fix::from_double(FixFormat::signed_fix(16, 8), 1.25)
                       .cast(out, Quantization::kRoundHalfUp)
                       .to_double(),
                   1.0);
}

TEST(Fix, CastSaturate) {
  const Fix big = Fix::from_double(FixFormat::signed_fix(16, 0), 1000.0);
  const Fix sat = big.cast(FixFormat::signed_fix(8, 0),
                           Quantization::kTruncate, Overflow::kSaturate);
  EXPECT_EQ(sat.raw(), 127);
  const Fix neg = Fix::from_double(FixFormat::signed_fix(16, 0), -1000.0);
  EXPECT_EQ(neg.cast(FixFormat::signed_fix(8, 0), Quantization::kTruncate,
                     Overflow::kSaturate)
                .raw(),
            -128);
}

TEST(Fix, CastWrapMatchesHardware) {
  const Fix v = Fix::from_double(FixFormat::signed_fix(16, 0), 130.0);
  EXPECT_EQ(v.cast(FixFormat::signed_fix(8, 0)).raw(), -126);  // 130 mod 256
}

TEST(Fix, CompareAcrossFormats) {
  const Fix a = Fix::from_double(FixFormat::signed_fix(16, 8), 1.5);
  const Fix b = Fix::from_double(FixFormat::signed_fix(32, 24), 1.5);
  EXPECT_EQ(a, b);
  const Fix c = Fix::from_double(FixFormat::signed_fix(32, 24), 1.25);
  EXPECT_LT(c, a);
}

TEST(Fix, ZeroAndSignPredicates) {
  const FixFormat f = FixFormat::signed_fix(8, 0);
  EXPECT_TRUE(Fix::from_int(f, 0).is_zero());
  EXPECT_TRUE(Fix::from_int(f, -1).is_negative());
  EXPECT_FALSE(Fix::from_int(f, 1).is_negative());
}

// ---- Property tests: fixed-point arithmetic agrees with wide host
// arithmetic over random values and formats. --------------------------------

struct FixPropertyCase {
  u64 seed;
};

class FixProperty : public ::testing::TestWithParam<u64> {};

TEST_P(FixProperty, AddSubMulAgreeWithHostArithmetic) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const u8 wa = static_cast<u8>(rng.next_in(2, 24));
    const u8 fa = static_cast<u8>(rng.next_in(0, wa));
    const u8 wb = static_cast<u8>(rng.next_in(2, 24));
    const u8 fb = static_cast<u8>(rng.next_in(0, wb));
    const FixFormat ffa{Signedness::kSigned, wa, fa};
    const FixFormat ffb{Signedness::kSigned, wb, fb};
    const Fix a = Fix::from_raw(ffa, rng.next_in(ffa.min_raw(), ffa.max_raw()));
    const Fix b = Fix::from_raw(ffb, rng.next_in(ffb.min_raw(), ffb.max_raw()));

    // Exact rational comparison via scaled integers.
    const int frac = std::max(int(fa), int(fb));
    const i64 sa = a.raw() << (frac - fa);
    const i64 sb = b.raw() << (frac - fb);

    const Fix sum = a.add_full(b);
    EXPECT_DOUBLE_EQ(sum.to_double(),
                     std::ldexp(static_cast<double>(sa + sb), -frac));
    const Fix diff = a.sub_full(b);
    EXPECT_DOUBLE_EQ(diff.to_double(),
                     std::ldexp(static_cast<double>(sa - sb), -frac));
    const Fix product = a.mul_full(b);
    EXPECT_DOUBLE_EQ(product.to_double(),
                     a.to_double() * b.to_double());
  }
}

TEST_P(FixProperty, CastWrapEqualsModularArithmetic) {
  Rng rng(GetParam() ^ 0x1234u);
  for (int trial = 0; trial < 200; ++trial) {
    const FixFormat wide = FixFormat::signed_fix(32, 0);
    const FixFormat narrow{Signedness::kSigned,
                           static_cast<u8>(rng.next_in(4, 16)), 0};
    const i64 value = rng.next_in(-(i64{1} << 30), i64{1} << 30);
    const Fix wrapped = Fix::from_raw(wide, value).cast(narrow);
    EXPECT_EQ(wrapped.raw(),
              sign_extend64(static_cast<u64>(value), narrow.word_bits))
        << "value=" << value << " width=" << int(narrow.word_bits);
  }
}

TEST_P(FixProperty, CompareIsConsistentWithDoubles) {
  Rng rng(GetParam() ^ 0x777u);
  for (int trial = 0; trial < 200; ++trial) {
    const FixFormat fa{Signedness::kSigned, 20,
                       static_cast<u8>(rng.next_in(0, 16))};
    const FixFormat fb{Signedness::kSigned, 20,
                       static_cast<u8>(rng.next_in(0, 16))};
    const Fix a = Fix::from_raw(fa, rng.next_in(fa.min_raw(), fa.max_raw()));
    const Fix b = Fix::from_raw(fb, rng.next_in(fb.min_raw(), fb.max_raw()));
    EXPECT_EQ(a < b, a.to_double() < b.to_double());
    EXPECT_EQ(a == b, a.to_double() == b.to_double());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace mbcosim
