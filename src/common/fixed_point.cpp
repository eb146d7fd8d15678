#include "common/fixed_point.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/bits.hpp"
#include "common/status.hpp"

namespace mbcosim {

namespace {
using i128 = __int128;

i64 clamp_to(i64 value, i64 lo, i64 hi) noexcept {
  return std::min(std::max(value, lo), hi);
}
}  // namespace

void FixFormat::validate() const {
  if (word_bits < 1 || word_bits > 63) {
    throw SimError("FixFormat: word_bits must be in [1, 63], got " +
                   std::to_string(int(word_bits)));
  }
  if (frac_bits > word_bits) {
    throw SimError("FixFormat: frac_bits (" + std::to_string(int(frac_bits)) +
                   ") exceeds word_bits (" + std::to_string(int(word_bits)) +
                   ")");
  }
  if (sign == Signedness::kSigned && word_bits < 1) {
    throw SimError("FixFormat: signed formats need at least 1 bit");
  }
}

i64 FixFormat::max_raw() const noexcept {
  if (sign == Signedness::kSigned) {
    return static_cast<i64>(low_mask64(word_bits - 1u));
  }
  return static_cast<i64>(low_mask64(word_bits));
}

i64 FixFormat::min_raw() const noexcept {
  if (sign == Signedness::kSigned) {
    return -static_cast<i64>(u64{1} << (word_bits - 1u));
  }
  return 0;
}

double FixFormat::resolution() const noexcept {
  return std::ldexp(1.0, -int(frac_bits));
}

std::string FixFormat::to_string() const {
  std::ostringstream os;
  os << (sign == Signedness::kSigned ? "Fix" : "UFix") << int(word_bits) << "_"
     << int(frac_bits);
  return os.str();
}

Fix Fix::from_raw(FixFormat fmt, i64 raw) {
  fmt.validate();
  const u64 masked = static_cast<u64>(raw) & low_mask64(fmt.word_bits);
  const i64 extended = fmt.sign == Signedness::kSigned
                           ? sign_extend64(masked, fmt.word_bits)
                           : static_cast<i64>(masked);
  return Fix(fmt, extended);
}

Fix Fix::from_double(FixFormat fmt, double value) {
  fmt.validate();
  const double scaled = std::ldexp(value, int(fmt.frac_bits));
  // Round half away from zero, then saturate, matching SysGen gateway-in
  // defaults with saturation enabled.
  const double rounded = std::nearbyint(scaled);
  i64 raw;
  if (rounded >= static_cast<double>(fmt.max_raw())) {
    raw = fmt.max_raw();
  } else if (rounded <= static_cast<double>(fmt.min_raw())) {
    raw = fmt.min_raw();
  } else {
    raw = static_cast<i64>(rounded);
  }
  return Fix(fmt, raw);
}

Fix Fix::from_int(FixFormat fmt, i64 value) {
  fmt.validate();
  if (fmt.frac_bits != 0) {
    throw SimError("Fix::from_int requires an integer format, got " +
                   fmt.to_string());
  }
  if (value > fmt.max_raw() || value < fmt.min_raw()) {
    throw SimError("Fix::from_int: " + std::to_string(value) +
                   " does not fit " + fmt.to_string());
  }
  return Fix(fmt, value);
}

double Fix::to_double() const noexcept {
  return std::ldexp(static_cast<double>(raw_), -int(fmt_.frac_bits));
}

u64 Fix::raw_bits() const noexcept {
  return static_cast<u64>(raw_) & low_mask64(fmt_.word_bits);
}

FixFormat Fix::add_full_format(const FixFormat& a, const FixFormat& b) {
  // Integer bits grow to the max of the operands plus one carry bit;
  // fraction bits grow to the max. Result is signed if either operand is
  // signed (an unsigned operand gains a bit when promoted to signed).
  const bool signed_result =
      a.sign == Signedness::kSigned || b.sign == Signedness::kSigned;
  auto int_bits = [signed_result](const FixFormat& f) {
    int ib = int(f.word_bits) - int(f.frac_bits);
    if (signed_result && f.sign == Signedness::kUnsigned) ib += 1;
    return ib;
  };
  const int frac = std::max(int(a.frac_bits), int(b.frac_bits));
  const int word = frac + std::max(int_bits(a), int_bits(b)) + 1;
  if (word > 63) {
    throw SimError("Fix: full-precision add/sub of " + a.to_string() +
                   " and " + b.to_string() + " needs " +
                   std::to_string(word) + " bits (limit 63)");
  }
  FixFormat result{signed_result ? Signedness::kSigned : Signedness::kUnsigned,
                   static_cast<u8>(word), static_cast<u8>(frac)};
  result.validate();
  return result;
}

FixFormat Fix::sub_full_format(const FixFormat& a, const FixFormat& b) {
  FixFormat out = add_full_format(a, b);
  out.sign = Signedness::kSigned;  // subtraction can go negative
  return out;
}

FixFormat Fix::mul_full_format(const FixFormat& a, const FixFormat& b) {
  const int frac = int(a.frac_bits) + int(b.frac_bits);
  if (frac > 63) {
    throw SimError("Fix: full-precision mul of " + a.to_string() + " and " +
                   b.to_string() + " needs " + std::to_string(frac) +
                   " fraction bits (limit 63)");
  }
  const bool signed_result =
      a.sign == Signedness::kSigned || b.sign == Signedness::kSigned;
  const int word = std::min(int(a.word_bits) + int(b.word_bits), 63);
  FixFormat out{signed_result ? Signedness::kSigned : Signedness::kUnsigned,
                static_cast<u8>(word), static_cast<u8>(frac)};
  out.validate();
  return out;
}

Fix Fix::add_full(const Fix& other) const {
  const FixFormat out = add_full_format(fmt_, other.fmt_);
  const i64 a = raw_ << (out.frac_bits - fmt_.frac_bits);
  const i64 b = other.raw_ << (out.frac_bits - other.fmt_.frac_bits);
  return Fix(out, a + b);
}

Fix Fix::sub_full(const Fix& other) const {
  const FixFormat out = sub_full_format(fmt_, other.fmt_);
  const i64 a = raw_ << (out.frac_bits - fmt_.frac_bits);
  const i64 b = other.raw_ << (out.frac_bits - other.fmt_.frac_bits);
  return Fix(out, a - b);
}

Fix Fix::mul_full(const Fix& other) const {
  const FixFormat out = mul_full_format(fmt_, other.fmt_);
  const i128 product = i128(raw_) * i128(other.raw_);
  // Words wider than 63 bits are capped: the product is clamped to the
  // capped word's range; block authors who need more width must cast
  // down first.
  const i64 raw = clamp_to(
      static_cast<i64>(std::min<i128>(
          std::max<i128>(product, i128(out.min_raw())), i128(out.max_raw()))),
      out.min_raw(), out.max_raw());
  return Fix(out, raw);
}

Fix Fix::negate_full() const {
  FixFormat out = fmt_;
  out.sign = Signedness::kSigned;
  out.word_bits = static_cast<u8>(std::min(int(out.word_bits) + 1, 63));
  out.validate();
  return Fix(out, -raw_);
}

Fix Fix::shift_right_exact(unsigned amount) const {
  FixFormat out = fmt_;
  const int frac = int(fmt_.frac_bits) + int(amount);
  const int word = int(fmt_.word_bits) + int(amount);
  if (word > 63) {
    throw SimError("Fix::shift_right_exact: result exceeds 63 bits");
  }
  out.frac_bits = static_cast<u8>(frac);
  out.word_bits = static_cast<u8>(word);
  out.validate();
  return Fix(out, raw_);
}

Fix Fix::shift_left_exact(unsigned amount) const {
  FixFormat out = fmt_;
  const int word = int(fmt_.word_bits) + int(amount);
  if (word > 63) {
    throw SimError("Fix::shift_left_exact: result exceeds 63 bits");
  }
  out.word_bits = static_cast<u8>(word);
  out.validate();
  return Fix(out, raw_ << amount);
}

Fix Fix::shift_right_keep_format(unsigned amount) const {
  if (amount >= 63) return Fix(fmt_, raw_ < 0 ? -1 : 0);
  return Fix(fmt_, raw_ >> amount);
}

Fix Fix::cast(FixFormat to, Quantization q, Overflow o) const {
  to.validate();
  // Step 1: re-scale the raw code to the destination binary point.
  i128 scaled = raw_;
  const int shift = int(to.frac_bits) - int(fmt_.frac_bits);
  if (shift >= 0) {
    scaled <<= shift;
  } else {
    const int drop = -shift;
    switch (q) {
      case Quantization::kTruncate:
        scaled >>= drop;  // arithmetic shift: floor
        break;
      case Quantization::kRoundHalfUp: {
        const i128 half = i128(1) << (drop - 1);
        scaled = (scaled + half) >> drop;
        break;
      }
    }
  }
  // Step 2: overflow handling into the destination width.
  const i128 max_raw = to.max_raw();
  const i128 min_raw = to.min_raw();
  i64 raw;
  if (scaled <= max_raw && scaled >= min_raw) {
    raw = static_cast<i64>(scaled);
  } else if (o == Overflow::kSaturate) {
    raw = scaled > max_raw ? to.max_raw() : to.min_raw();
  } else {
    const u64 masked = static_cast<u64>(scaled) & low_mask64(to.word_bits);
    raw = to.sign == Signedness::kSigned ? sign_extend64(masked, to.word_bits)
                                         : static_cast<i64>(masked);
  }
  return Fix(to, raw);
}

std::strong_ordering Fix::compare(const Fix& other) const noexcept {
  // Align binary points exactly in 128-bit arithmetic.
  const int frac = std::max(int(fmt_.frac_bits), int(other.fmt_.frac_bits));
  const i128 a = i128(raw_) << (frac - fmt_.frac_bits);
  const i128 b = i128(other.raw_) << (frac - other.fmt_.frac_bits);
  if (a < b) return std::strong_ordering::less;
  if (a > b) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::string Fix::to_string() const {
  std::ostringstream os;
  os << to_double() << " (" << fmt_.to_string() << " raw=" << raw_ << ")";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Fix& value) {
  return os << value.to_string();
}

std::ostream& operator<<(std::ostream& os, const FixFormat& fmt) {
  return os << fmt.to_string();
}

}  // namespace mbcosim
