// A Signal is a typed wire between block ports: it carries one Fix value
// per simulated clock cycle. Exactly one block output drives each signal.
// The value lives as a raw i64 code (sign- or zero-extended into the
// format) in a slot the compiled kernel's ops read and write directly.
#pragma once

#include <string>
#include <utility>

#include "common/fixed_point.hpp"
#include "common/status.hpp"
#include "sysgen/kernel.hpp"

namespace mbcosim::sysgen {

class Block;

class Signal {
 public:
  Signal(std::string name, FixFormat format)
      : name_(std::move(name)), format_(format) {
    format_.validate();
    wrap_ = Wrap::into(format_);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const FixFormat& format() const noexcept { return format_; }
  [[nodiscard]] Fix value() const { return Fix::from_raw(format_, raw_); }

  /// Convenience readers used all over the block library.
  [[nodiscard]] i64 raw() const noexcept { return raw_; }
  [[nodiscard]] bool as_bool() const noexcept { return raw_ != 0; }
  [[nodiscard]] double as_double() const noexcept {
    return value().to_double();
  }

  /// Drive the wire. The value must already be in the signal's format —
  /// blocks cast their results explicitly, exactly like the hardware they
  /// abstract (there are no implicit width conversions on an FPGA net).
  void drive(const Fix& value) {
    if (value.format() != format_) {
      throw SimError("Signal '" + name_ + "': driven with format " +
                     value.format().to_string() + ", expected " +
                     format_.to_string());
    }
    raw_ = value.raw();
  }

  /// Drive from a raw code (masked into the format).
  void drive_raw(i64 raw_code) noexcept { raw_ = wrap(raw_code); }

  /// A raw code masked into the format and sign- or zero-extended.
  [[nodiscard]] i64 wrap(i64 raw_code) const noexcept {
    return wrap_(raw_code);
  }

  /// The value's slot, for the ops that read and write it.
  [[nodiscard]] i64* slot() noexcept { return &raw_; }
  [[nodiscard]] const i64* slot() const noexcept { return &raw_; }

  [[nodiscard]] Block* driver() const noexcept { return driver_; }
  void set_driver(Block* block) {
    if (driver_ != nullptr && block != nullptr) {
      throw SimError("Signal '" + name_ + "' already has a driver");
    }
    driver_ = block;
  }

  void reset() noexcept { raw_ = 0; }

 private:
  std::string name_;
  FixFormat format_;
  Wrap wrap_;
  i64 raw_ = 0;
  Block* driver_ = nullptr;
};

}  // namespace mbcosim::sysgen
