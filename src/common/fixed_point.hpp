// Fixed-point arithmetic in the style of Xilinx System Generator's
// Fix/UFix types. The sysgen block library (src/sysgen) computes on these
// values: this is the "arithmetic aspect of the low-level implementations"
// that the paper's high-level simulation captures (Section I).
//
// A value with format (sign, word_bits, frac_bits) stores an integer raw
// code on word_bits bits; the represented value is raw / 2^frac_bits.
// Arithmetic grows precision exactly (full-precision add/sub/mul) and
// explicit casts apply a quantization mode (truncate / round) followed by
// an overflow mode (wrap / saturate), matching the hardware semantics of
// the corresponding FPGA arithmetic cores.
#pragma once

#include <compare>
#include <iosfwd>
#include <string>

#include "common/types.hpp"

namespace mbcosim {

enum class Signedness : u8 { kUnsigned, kSigned };
enum class Overflow : u8 { kWrap, kSaturate };
enum class Quantization : u8 { kTruncate, kRoundHalfUp };

/// Number format of a fixed-point signal.
struct FixFormat {
  Signedness sign = Signedness::kSigned;
  u8 word_bits = 32;  ///< total width in [1, 63]
  u8 frac_bits = 0;   ///< binary point position in [0, word_bits]

  friend bool operator==(const FixFormat&, const FixFormat&) = default;

  /// Throws SimError when the format is outside the supported envelope.
  void validate() const;

  [[nodiscard]] i64 max_raw() const noexcept;
  [[nodiscard]] i64 min_raw() const noexcept;
  [[nodiscard]] double resolution() const noexcept;  ///< 2^-frac_bits
  [[nodiscard]] std::string to_string() const;

  static constexpr FixFormat signed_fix(u8 word, u8 frac) {
    return FixFormat{Signedness::kSigned, word, frac};
  }
  static constexpr FixFormat unsigned_fix(u8 word, u8 frac) {
    return FixFormat{Signedness::kUnsigned, word, frac};
  }
  /// Plain two's-complement integer of `word` bits.
  static constexpr FixFormat integer(u8 word) {
    return FixFormat{Signedness::kSigned, word, 0};
  }
};

/// A fixed-point value: raw integer code + format. Raw codes are kept
/// sign-extended (signed) or zero-extended (unsigned) in an i64 so host
/// arithmetic is exact for all supported widths.
class Fix {
 public:
  /// Zero in the default 32-bit signed integer format.
  Fix() noexcept : fmt_{}, raw_{0} {}

  /// Value from a raw code; the code is masked/extended to the format.
  static Fix from_raw(FixFormat fmt, i64 raw);

  /// Quantize a real number into the format (round-half-up, saturate).
  static Fix from_double(FixFormat fmt, double value);

  /// Exact integer in the given format (throws SimError on overflow).
  static Fix from_int(FixFormat fmt, i64 value);

  [[nodiscard]] const FixFormat& format() const noexcept { return fmt_; }
  [[nodiscard]] i64 raw() const noexcept { return raw_; }
  [[nodiscard]] double to_double() const noexcept;
  /// Raw code truncated to the low word_bits, as it would appear on a bus.
  [[nodiscard]] u64 raw_bits() const noexcept;

  [[nodiscard]] bool is_zero() const noexcept { return raw_ == 0; }
  [[nodiscard]] bool is_negative() const noexcept { return raw_ < 0; }

  /// Full-precision arithmetic: the result format grows so no information
  /// is lost (this mirrors System Generator's "full" precision option).
  [[nodiscard]] Fix add_full(const Fix& other) const;
  [[nodiscard]] Fix sub_full(const Fix& other) const;
  [[nodiscard]] Fix mul_full(const Fix& other) const;
  [[nodiscard]] Fix negate_full() const;

  /// Result formats of add_full / sub_full / mul_full. They throw
  /// SimError when the exact result needs more than 63 bits: for add and
  /// sub when the aligned word is wider, for mul when the fraction bits
  /// sum past 63. A mul word wider than 63 bits is capped and its result
  /// clamped to that word's range.
  static FixFormat add_full_format(const FixFormat& a, const FixFormat& b);
  static FixFormat sub_full_format(const FixFormat& a, const FixFormat& b);
  static FixFormat mul_full_format(const FixFormat& a, const FixFormat& b);

  /// Arithmetic shift right by `amount` bits (>= 0): moves the binary
  /// point, i.e. an exact division by 2^amount with format growth.
  [[nodiscard]] Fix shift_right_exact(unsigned amount) const;
  /// Exact multiply by 2^amount with format growth.
  [[nodiscard]] Fix shift_left_exact(unsigned amount) const;

  /// Hardware-style shift that keeps the format: bits fall off the end.
  [[nodiscard]] Fix shift_right_keep_format(unsigned amount) const;

  /// Convert to another format applying quantization then overflow
  /// handling, exactly as a System Generator "convert" block does.
  [[nodiscard]] Fix cast(FixFormat to, Quantization q = Quantization::kTruncate,
                         Overflow o = Overflow::kWrap) const;

  /// Numeric comparison across formats (exact).
  [[nodiscard]] std::strong_ordering compare(const Fix& other) const noexcept;
  friend bool operator==(const Fix& a, const Fix& b) noexcept {
    return a.compare(b) == std::strong_ordering::equal;
  }
  friend bool operator<(const Fix& a, const Fix& b) noexcept {
    return a.compare(b) == std::strong_ordering::less;
  }

  [[nodiscard]] std::string to_string() const;

 private:
  Fix(FixFormat fmt, i64 raw) noexcept : fmt_(fmt), raw_(raw) {}

  FixFormat fmt_;
  i64 raw_;
};

std::ostream& operator<<(std::ostream& os, const Fix& value);
std::ostream& operator<<(std::ostream& os, const FixFormat& fmt);

}  // namespace mbcosim
