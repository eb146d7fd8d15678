// The arithmetic of the op codes that compiled passes lower (DESIGN.md
// §15, "Compiled passes"), defined once: the interpreter's handler for
// each of these codes and the generated code both call the function
// here, with the op's constants and slots read from its record or
// written as literals, so the two paths compute the same bits by
// construction.
#pragma once

#include <algorithm>

#include "common/types.hpp"
#include "sysgen/kernel.hpp"

namespace mbcosim::sysgen::ops {

/// Store `next` in a state slot; true when that changed it.
inline bool update(i64& slot, i64 next) noexcept {
  const bool changed = slot != next;
  slot = next;
  return changed;
}

/// min(unsigned code, last): an index clamped to a table's last entry.
inline i64 clamp_index(i64 code, i64 last) noexcept {
  return static_cast<i64>(
      std::min(static_cast<u64>(code), static_cast<u64>(last)));
}

inline i64 wrap_ext(i64 a, u8 norm, i64 keep) noexcept {
  return Wrap::extend(a, norm, keep);
}
inline i64 add_ext(i64 a, i64 b, u8 norm, i64 keep) noexcept {
  return Wrap::extend(a + b, norm, keep);
}
inline i64 sub_ext(i64 a, i64 b, u8 norm, i64 keep) noexcept {
  return Wrap::extend(a - b, norm, keep);
}
inline i64 mul_ext(i64 a, i64 b, u8 norm, i64 keep) noexcept {
  return Wrap::extend(a * b, norm, keep);
}
inline i64 and_ext(i64 a, i64 b, u8 norm, i64 keep) noexcept {
  return Wrap::extend(a & b, norm, keep);
}
inline i64 not_ext(i64 a, u8 norm, i64 keep) noexcept {
  return Wrap::extend(~a, norm, keep);
}

/// kShrVar: a >> min(unsigned b, k).
inline i64 shr_var(i64 a, i64 b, i64 k) noexcept {
  return a >> clamp_index(b, k);
}

/// kMux: the slot sources[min(unsigned a, k)] of arena `s`.
inline i64 mux(const i64* s, const u32* sources, i64 a, i64 k) noexcept {
  return s[sources[clamp_index(a, k)]];
}

/// kCompareI64: bit (sign(a - b) + 1) of k.
inline i64 compare_i64(i64 a, i64 b, i64 k) noexcept {
  return (k >> ((a > b) - (a < b) + 1)) & 1;
}

/// kRegisterExt: if enable, dst = extend(a); true when dst changed.
inline bool register_ext(i64& dst, i64 a, i64 enable, u8 norm,
                         i64 keep) noexcept {
  return enable != 0 && update(dst, Wrap::extend(a, norm, keep));
}

/// kCounter: if reset, dst = 0, else if enable, dst = (dst + 1) mod k;
/// true when dst changed.
inline bool counter(i64& dst, i64 enable, i64 reset, i64 k) noexcept {
  if (reset != 0) return update(dst, 0);
  if (enable != 0) return update(dst, dst + 1 == k ? 0 : dst + 1);
  return false;
}

/// kSerialize: pop the front word unless `full`, push every captured
/// value of arena `s` when `valid`; true when either happened.
inline bool serialize(SerialQueue& queue, i64* s, i64 valid, i64 full) {
  bool moved = false;
  if (!queue.words.empty() && full == 0) {
    queue.words.pop_front();
    moved = true;
  }
  if (valid != 0) {
    for (const u32 value : queue.values) queue.words.push_back(s[value]);
    moved = true;
  }
  if (moved) queue.refresh(s);
  return moved;
}

}  // namespace mbcosim::sysgen::ops
