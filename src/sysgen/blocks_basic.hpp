// Standard block set: the arithmetic, routing and state primitives our
// applications are assembled from — the analog of the System Generator
// block set (Constant, AddSub, Mult, Mux, Relational, Logical, Shift,
// Delay, Register, Counter, Convert, Slice, Gateway In/Out).
//
// Each block's semantics live in its lower(): the ops it compiles to
// (kernel.hpp). They are bit-exact with the Fix operations named in each
// block's comment, which remain the reference the tests compare against.
//
// Per-block resource figures approximate a Virtex-II Pro mapping (two
// 4-input LUTs per slice); they feed the rapid resource estimator.
#pragma once

#include <algorithm>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "common/bits.hpp"
#include "sysgen/block.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::sysgen {

/// Slices for a W-bit ripple-carry add/sub/compare datapath.
constexpr u32 slices_for_adder(unsigned width) {
  return (width + 1) / 2;
}
/// Slices for W-bit registers (two flip-flops per slice).
constexpr u32 slices_for_register(unsigned width) {
  return (width + 1) / 2;
}

// ---------------------------------------------------------------------------
// Sources and sinks
// ---------------------------------------------------------------------------

/// Constant: drives a fixed value forever.
class Constant : public Block {
 public:
  Constant(Model& model, std::string name, Fix value)
      : Block(model, std::move(name)),
        value_(value.raw()),
        out_(make_output("out", value.format())) {}

  void lower(Lowering& lowering) override {
    lowering.emit(Phase::kPropagate,
                  {.code = OpCode::kCopy, .dst = out_.slot(), .a = &value_});
  }
  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  i64 value_;
  Signal& out_;
};

/// Gateway In: the boundary through which the surrounding environment
/// (testbench or co-simulation engine) injects values into the hardware
/// design — System Generator's "Gateway In" block (paper Section III-A).
class GatewayIn : public Block {
 public:
  GatewayIn(Model& model, std::string name, FixFormat format)
      : Block(model, std::move(name)), out_(make_output("out", format)) {}

  /// Set the value presented during the next step(). Doubles are
  /// quantized like a hardware gateway (round, saturate).
  void set(double value) {
    pending_ = Fix::from_double(out_.format(), value).raw();
  }
  /// Raw codes are masked into the format (no format re-validation: the
  /// FSL bridge calls this every stepped cycle).
  void set_raw(i64 raw_code) noexcept { pending_ = out_.wrap(raw_code); }
  void set_fix(const Fix& value) {
    pending_ = value.cast(out_.format(), Quantization::kRoundHalfUp,
                          Overflow::kSaturate).raw();
  }
  void set_bool(bool value) noexcept { set_raw(value ? 1 : 0); }

  void lower(Lowering& lowering) override {
    lowering.input(&pending_);
    lowering.emit(Phase::kPropagate,
                  {.code = OpCode::kCopy, .dst = out_.slot(), .a = &pending_});
  }
  void reset() override { pending_ = 0; }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_i64(pending_);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    pending_ = out_.wrap(reader.read_i64());
    return reader.ok();
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  Signal& out_;
  i64 pending_ = 0;
};

/// Gateway Out: exposes an internal signal to the environment.
class GatewayOut : public Block {
 public:
  GatewayOut(Model& model, std::string name, Signal& source)
      : Block(model, std::move(name)) {
    connect_input(source);
  }

  void lower(Lowering&) override {}  // a tap on its source: no ops

  [[nodiscard]] Fix read() const { return in(0).value(); }
  [[nodiscard]] i64 read_raw() const { return in(0).raw(); }
  [[nodiscard]] bool read_bool() const { return in(0).as_bool(); }
};

// ---------------------------------------------------------------------------
// Pipelined function base
// ---------------------------------------------------------------------------

/// Ring of raw pipeline stages: stages[head] is the front, the value
/// driven out this cycle; the latch overwrites it with the newest value
/// and advances head. Checkpoints write the stages front to back.
class StageRing {
 public:
  explicit StageRing(std::size_t depth) : stages_(depth, 0) {}

  /// Phase 0: drive the front onto `out`; phase 2: push `next`.
  void lower(Lowering& lowering, Signal& out, const i64* next) {
    lowering.emit(Phase::kOutput, {.code = OpCode::kRingRead,
                                   .dst = out.slot(),
                                   .a = &head_,
                                   .ext = {.cells = stages_.data()}});
    lowering.emit(Phase::kLatch, {.code = OpCode::kRingPush,
                                  .k = static_cast<i64>(stages_.size()),
                                  .dst = &head_,
                                  .a = next,
                                  .ext = {.cells = stages_.data()}});
  }

  void reset() noexcept {
    std::fill(stages_.begin(), stages_.end(), 0);
    head_ = 0;
  }
  void save_state(ckpt::Writer& writer) const {
    const std::size_t depth = stages_.size();
    for (std::size_t i = 0; i < depth; ++i) {
      writer.write_i64(stages_[(static_cast<std::size_t>(head_) + i) % depth]);
    }
  }
  /// Reads the stages front to back, each wrapped into `out`'s format.
  void load_state(ckpt::Reader& reader, const Signal& out) {
    for (i64& stage : stages_) stage = out.wrap(reader.read_i64());
    head_ = 0;
  }

 private:
  std::vector<i64> stages_;  // sized once: the ops point into it
  i64 head_ = 0;
};

/// Common machinery for arithmetic blocks with a configurable pipeline
/// latency: latency 0 is combinational; latency L >= 1 inserts L output
/// registers (like the "latency" parameter on System Generator blocks).
class PipelinedFunction : public Block {
 public:
  [[nodiscard]] bool is_sequential() const override { return latency_ > 0; }

  void lower(Lowering& lowering) final {
    if (latency_ == 0) {
      emit(lowering, Phase::kPropagate, out_.slot());
      return;
    }
    i64* next = lowering.temp();
    emit(lowering, Phase::kLatch, next);
    pipe_.lower(lowering, out_, next);
  }
  void reset() override { pipe_.reset(); }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_u32(latency_);
    pipe_.save_state(writer);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    if (reader.read_u32() != latency_) return false;
    pipe_.load_state(reader, out_);
    return reader.ok();
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }
  [[nodiscard]] unsigned latency() const noexcept { return latency_; }

 protected:
  PipelinedFunction(Model& model, std::string name, FixFormat out_format,
                    unsigned latency)
      : Block(model, std::move(name)),
        latency_(latency),
        out_(make_output("out", out_format)),
        pipe_(latency) {}

  /// Emit the ops that evaluate the function from the current inputs
  /// into `dst` (the output signal, or the pipeline's next stage).
  virtual void emit(Lowering& lowering, Phase phase, i64* dst) const = 0;

 private:
  unsigned latency_;
  Signal& out_;
  StageRing pipe_;
};

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

/// AddSub: a.add_full(b) or a.sub_full(b), cast into the configured
/// output format. Elaboration rejects operands whose exact sum needs more
/// than 63 bits.
class AddSub : public PipelinedFunction {
 public:
  enum class Mode { kAdd, kSubtract };

  AddSub(Model& model, std::string name, Mode mode, Signal& a, Signal& b,
         FixFormat out_format, unsigned latency = 0,
         Quantization quantization = Quantization::kTruncate,
         Overflow overflow = Overflow::kWrap)
      : PipelinedFunction(model, std::move(name), out_format, latency),
        mode_(mode),
        quantization_(quantization),
        overflow_(overflow) {
    connect_input(a);
    connect_input(b);
  }

  [[nodiscard]] ResourceVec resources() const override {
    const unsigned width = std::max(in(0).format().word_bits,
                                    in(1).format().word_bits);
    ResourceVec r{slices_for_adder(width), 0, 0};
    if (latency() > 0) {
      r.slices += slices_for_register(outputs()[0]->format().word_bits);
    }
    return r;
  }

 private:
  void emit(Lowering& lowering, Phase phase, i64* dst) const override {
    const FixFormat a = in(0).format();
    const FixFormat b = in(1).format();
    FixFormat full;
    try {
      full = mode_ == Mode::kAdd ? Fix::add_full_format(a, b)
                                 : Fix::sub_full_format(a, b);
    } catch (const SimError& error) {
      throw SimError("AddSub '" + name() + "': " + error.what());
    }
    const Op op{.code = mode_ == Mode::kAdd ? OpCode::kAdd : OpCode::kSub,
                .sa = static_cast<u8>(full.frac_bits - a.frac_bits),
                .sb = static_cast<u8>(full.frac_bits - b.frac_bits),
                .dst = dst,
                .a = in(0).slot(),
                .b = in(1).slot()};
    const FixFormat out = outputs()[0]->format();
    lowering.emit_converted(phase, op, out,
                            int(out.frac_bits) - int(full.frac_bits),
                            quantization_, overflow_);
  }

  Mode mode_;
  Quantization quantization_;
  Overflow overflow_;
};

/// Mult: a.mul_full(b) cast to the output format. Maps to embedded
/// MULT18x18 primitives when the operands fit, as on Virtex-II.
/// Elaboration rejects operands whose fraction bits sum past 63.
class Mult : public PipelinedFunction {
 public:
  Mult(Model& model, std::string name, Signal& a, Signal& b,
       FixFormat out_format, unsigned latency = 1,
       Quantization quantization = Quantization::kTruncate,
       Overflow overflow = Overflow::kWrap)
      : PipelinedFunction(model, std::move(name), out_format, latency),
        quantization_(quantization),
        overflow_(overflow) {
    connect_input(a);
    connect_input(b);
  }

  [[nodiscard]] ResourceVec resources() const override {
    const unsigned wa = in(0).format().word_bits;
    const unsigned wb = in(1).format().word_bits;
    ResourceVec r;
    r.mult18s = ceil_div(wa, 18u) * ceil_div(wb, 18u);
    r.slices = 2 + (latency() > 0
                        ? slices_for_register(outputs()[0]->format().word_bits)
                        : 0);
    return r;
  }

 private:
  void emit(Lowering& lowering, Phase phase, i64* dst) const override {
    const FixFormat a = in(0).format();
    const FixFormat b = in(1).format();
    FixFormat full;
    try {
      full = Fix::mul_full_format(a, b);
    } catch (const SimError& error) {
      throw SimError("Mult '" + name() + "': " + error.what());
    }
    Op op{.code = OpCode::kMul, .dst = dst, .a = in(0).slot(),
          .b = in(1).slot()};
    if (a.word_bits + b.word_bits > 63) {
      // The word is capped: clamp the 128-bit product to its range, as
      // mul_full does, then convert.
      i64* product = lowering.temp();
      lowering.emit(phase, {.code = OpCode::kMulClamp,
                            .k = full.min_raw(),
                            .k2 = full.max_raw(),
                            .dst = product,
                            .a = op.a,
                            .b = op.b});
      op = {.code = OpCode::kWrap, .dst = dst, .a = product};
    }
    const FixFormat out = outputs()[0]->format();
    lowering.emit_converted(phase, op, out,
                            int(out.frac_bits) - int(full.frac_bits),
                            quantization_, overflow_);
  }

  Quantization quantization_;
  Overflow overflow_;
};

/// Negate: a.negate_full() cast (truncate, wrap) to the output format.
class Negate : public PipelinedFunction {
 public:
  Negate(Model& model, std::string name, Signal& a, FixFormat out_format,
         unsigned latency = 0)
      : PipelinedFunction(model, std::move(name), out_format, latency) {
    connect_input(a);
  }

  [[nodiscard]] ResourceVec resources() const override {
    return ResourceVec{slices_for_adder(in(0).format().word_bits), 0, 0};
  }

 private:
  void emit(Lowering& lowering, Phase phase, i64* dst) const override {
    const FixFormat out = outputs()[0]->format();
    lowering.emit(phase,
                  {.code = OpCode::kNeg,
                   .wrap = Wrap::into(out, int(out.frac_bits) -
                                               int(in(0).format().frac_bits)),
                   .dst = dst,
                   .a = in(0).slot()});
  }
};

/// Convert: a.cast(out_format, quantization, overflow) (System Generator
/// "Convert" block).
class Convert : public PipelinedFunction {
 public:
  Convert(Model& model, std::string name, Signal& a, FixFormat out_format,
          Quantization quantization = Quantization::kTruncate,
          Overflow overflow = Overflow::kWrap, unsigned latency = 0)
      : PipelinedFunction(model, std::move(name), out_format, latency),
        quantization_(quantization),
        overflow_(overflow) {
    connect_input(a);
  }

  [[nodiscard]] ResourceVec resources() const override {
    // Rounding needs an adder stage; truncation is free wiring.
    ResourceVec r;
    if (quantization_ == Quantization::kRoundHalfUp) {
      r.slices += slices_for_adder(outputs()[0]->format().word_bits);
    }
    return r;
  }

 private:
  void emit(Lowering& lowering, Phase phase, i64* dst) const override {
    const FixFormat out = outputs()[0]->format();
    lowering.emit_converted(
        phase, {.code = OpCode::kWrap, .dst = dst, .a = in(0).slot()}, out,
        int(out.frac_bits) - int(in(0).format().frac_bits), quantization_,
        overflow_);
  }

  Quantization quantization_;
  Overflow overflow_;
};

/// Constant-amount shift, binary point fixed (hardware wiring shift):
/// a.shift_right_keep_format(amount), or Fix::from_raw(format,
/// a.raw() << amount) to the left, where amount must be below 64.
class ShiftConst : public PipelinedFunction {
 public:
  enum class Direction { kLeft, kRightArithmetic };

  ShiftConst(Model& model, std::string name, Signal& a, Direction direction,
             unsigned amount, unsigned latency = 0)
      : PipelinedFunction(model, std::move(name), a.format(), latency),
        direction_(direction),
        amount_(amount) {
    if (direction == Direction::kLeft && amount > 63) {
      throw SimError("ShiftConst '" + this->name() +
                     "': left shift by more than 63 bits");
    }
    connect_input(a);
  }

 private:
  void emit(Lowering& lowering, Phase phase, i64* dst) const override {
    if (direction_ == Direction::kRightArithmetic) {
      lowering.emit(phase, {.code = OpCode::kShr,
                            .k = std::min<i64>(amount_, 63),
                            .dst = dst,
                            .a = in(0).slot()});
      return;
    }
    lowering.emit(phase, {.code = OpCode::kWrap,
                          .wrap = Wrap::into(in(0).format(), int(amount_)),
                          .dst = dst,
                          .a = in(0).slot()});
  }

  Direction direction_;
  unsigned amount_;
};

/// Variable arithmetic right shift: a.shift_right_keep_format(min(amount,
/// max_shift)), with the amount's raw code read as unsigned. Models
/// a slice-based barrel shifter — this is how the CORDIC PEs scale by the
/// variable power of two C_i without consuming embedded multipliers
/// (paper Section IV-A and Table I, which reports no extra multipliers
/// for the CORDIC peripheral).
class VariableShiftRight : public PipelinedFunction {
 public:
  VariableShiftRight(Model& model, std::string name, Signal& a,
                     Signal& amount, unsigned max_shift, unsigned latency = 0)
      : PipelinedFunction(model, std::move(name), a.format(), latency),
        max_shift_(max_shift) {
    connect_input(a);
    connect_input(amount);
  }

  [[nodiscard]] ResourceVec resources() const override {
    // One 2:1 mux level per shift-amount bit, one LUT per data bit per
    // level, two LUTs per slice.
    const unsigned width = in(0).format().word_bits;
    unsigned levels = 0;
    while ((1u << levels) <= max_shift_) ++levels;
    return ResourceVec{ceil_div(width * levels, 2u), 0, 0};
  }

 private:
  void emit(Lowering& lowering, Phase phase, i64* dst) const override {
    // Shifting by 63 or more leaves only sign bits, as keep-format does.
    lowering.emit(phase, {.code = OpCode::kShrVar,
                          .k = std::min<i64>(max_shift_, 63),
                          .dst = dst,
                          .a = in(0).slot(),
                          .b = in(1).slot()});
  }

  unsigned max_shift_;
};

// ---------------------------------------------------------------------------
// Routing and comparison
// ---------------------------------------------------------------------------

/// Mux: data inputs selected by an unsigned select input.
class Mux : public PipelinedFunction {
 public:
  Mux(Model& model, std::string name, Signal& select,
      std::vector<Signal*> data, unsigned latency = 0)
      : PipelinedFunction(model, std::move(name),
                          data.empty() ? FixFormat{} : data.front()->format(),
                          latency),
        fan_in_(static_cast<unsigned>(data.size())) {
    if (data.empty()) {
      throw SimError("Mux '" + this->name() + "': needs at least one input");
    }
    for (const Signal* signal : data) {
      if (signal->format() != data.front()->format()) {
        throw SimError("Mux '" + this->name() +
                       "': all data inputs must share a format");
      }
    }
    connect_input(select);
    for (Signal* signal : data) connect_input(*signal);
  }

  [[nodiscard]] ResourceVec resources() const override {
    const unsigned width = outputs()[0]->format().word_bits;
    return ResourceVec{ceil_div(width * (fan_in_ - 1), 2u), 0, 0};
  }

 private:
  void emit(Lowering& lowering, Phase phase, i64* dst) const override {
    std::vector<const i64*> sources;
    for (std::size_t i = 1; i <= fan_in_; ++i) sources.push_back(in(i).slot());
    // An out-of-range select picks the last input, like the HW core.
    const i64* const* table = lowering.table(std::move(sources));
    lowering.emit(phase, {.code = OpCode::kMux,
                          .k = static_cast<i64>(fan_in_) - 1,
                          .dst = dst,
                          .a = in(0).slot(),
                          .ext = {.sources = table}});
  }

  unsigned fan_in_;
};

/// Relational: boolean (UFix1_0) result of a.compare(b).
class Relational : public PipelinedFunction {
 public:
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };

  Relational(Model& model, std::string name, Op op, Signal& a, Signal& b,
             unsigned latency = 0)
      : PipelinedFunction(model, std::move(name),
                          FixFormat::unsigned_fix(1, 0), latency),
        op_(op) {
    connect_input(a);
    connect_input(b);
  }

  [[nodiscard]] ResourceVec resources() const override {
    const unsigned width = std::max(in(0).format().word_bits,
                                    in(1).format().word_bits);
    return ResourceVec{slices_for_adder(width), 0, 0};
  }

 private:
  void emit(Lowering& lowering, Phase phase, i64* dst) const override {
    // Bit 0/1/2 of the truth table: the result when a is less than,
    // equal to, greater than b.
    i64 truth = 0;
    switch (op_) {
      case Op::kEq: truth = 0b010; break;
      case Op::kNe: truth = 0b101; break;
      case Op::kLt: truth = 0b001; break;
      case Op::kLe: truth = 0b011; break;
      case Op::kGt: truth = 0b100; break;
      case Op::kGe: truth = 0b110; break;
    }
    // Align the binary points exactly, as Fix::compare does.
    const int fa = in(0).format().frac_bits;
    const int fb = in(1).format().frac_bits;
    const int frac = std::max(fa, fb);
    lowering.emit(phase, {.code = OpCode::kCompare,
                          .sa = static_cast<u8>(frac - fa),
                          .sb = static_cast<u8>(frac - fb),
                          .k = truth,
                          .dst = dst,
                          .a = in(0).slot(),
                          .b = in(1).slot()});
  }

  Op op_;
};

/// Logical: bitwise AND/OR/XOR of N inputs (NOT of one), computed on the
/// low word bits of the first input's format and wrapped into it.
class Logical : public PipelinedFunction {
 public:
  enum class Op { kAnd, kOr, kXor, kNot };

  Logical(Model& model, std::string name, Op op, std::vector<Signal*> inputs,
          unsigned latency = 0)
      : PipelinedFunction(model, std::move(name),
                          inputs.empty() ? FixFormat{}
                                         : inputs.front()->format(),
                          latency),
        op_(op) {
    if (inputs.empty() || (op == Op::kNot && inputs.size() != 1)) {
      throw SimError("Logical '" + this->name() + "': bad input count");
    }
    for (Signal* signal : inputs) connect_input(*signal);
  }

  [[nodiscard]] ResourceVec resources() const override {
    const unsigned width = outputs()[0]->format().word_bits;
    const auto fan_in = static_cast<unsigned>(inputs().size());
    return ResourceVec{ceil_div(width * std::max(1u, fan_in - 1), 2u), 0, 0};
  }

 private:
  void emit(Lowering& lowering, Phase phase, i64* dst) const override {
    // Bitwise ops commute with masking, so only the last op wraps.
    const Wrap out = Wrap::into(outputs()[0]->format());
    const std::size_t fan_in = inputs().size();
    if (op_ == Op::kNot || fan_in == 1) {
      lowering.emit(phase, {.code = op_ == Op::kNot ? OpCode::kNot
                                                    : OpCode::kWrap,
                            .wrap = out,
                            .dst = dst,
                            .a = in(0).slot()});
      return;
    }
    const OpCode code = op_ == Op::kAnd  ? OpCode::kAnd
                        : op_ == Op::kOr ? OpCode::kOr
                                         : OpCode::kXor;
    const i64* acc = in(0).slot();
    for (std::size_t i = 1; i < fan_in; ++i) {
      const bool last = i + 1 == fan_in;
      i64* to = last ? dst : lowering.temp();
      lowering.emit(phase, {.code = code,
                            .wrap = last ? out : Wrap{},
                            .dst = to,
                            .a = acc,
                            .b = in(i).slot()});
      acc = to;
    }
  }

  Op op_;
};

/// Slice: extract bits [low, low + width) as an unsigned integer.
class Slice : public PipelinedFunction {
 public:
  Slice(Model& model, std::string name, Signal& a, unsigned low,
        unsigned width, unsigned latency = 0)
      : PipelinedFunction(model, std::move(name),
                          FixFormat::unsigned_fix(static_cast<u8>(width), 0),
                          latency),
        low_(low) {
    if (width == 0 || low + width > a.format().word_bits) {
      throw SimError("Slice '" + this->name() + "': range [" +
                     std::to_string(low) + ", " + std::to_string(low + width) +
                     ") outside " + a.format().to_string());
    }
    connect_input(a);
  }

 private:
  void emit(Lowering& lowering, Phase phase, i64* dst) const override {
    // Drop the low bits, keep `width` (low + width never exceeds 63, so
    // an arithmetic shift leaves the kept bits as a logical one would).
    lowering.emit(phase, {.code = OpCode::kWrap,
                          .wrap = Wrap::into(outputs()[0]->format(),
                                             -int(low_)),
                          .dst = dst,
                          .a = in(0).slot()});
  }

  unsigned low_;
};

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// Register: one-cycle delay with initial value and optional enable; the
/// input is cast (truncate, wrap) into the initial value's format.
/// The feedback-form constructor leaves the data input unconnected so
/// accumulator loops can be closed after the downstream logic exists
/// (sequential blocks legally break combinational cycles).
class Register : public Block {
 public:
  Register(Model& model, std::string name, Signal& d, Fix init,
           Signal* enable = nullptr)
      : Register(model, std::move(name), init, enable) {
    connect_d(d);
  }

  /// Feedback form: call connect_d() before the first simulation step.
  Register(Model& model, std::string name, Fix init, Signal* enable = nullptr)
      : Block(model, std::move(name)),
        init_(init.raw()),
        state_(init.raw()),
        out_(make_output("q", init.format())) {
    if (enable != nullptr) {
      enable_index_ = static_cast<int>(inputs().size());
      connect_input(*enable);
    }
  }

  void connect_d(Signal& d) {
    if (d_index_ >= 0) {
      throw SimError("Register '" + name() + "': data input already bound");
    }
    d_index_ = static_cast<int>(inputs().size());
    connect_input(d);
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void check() const override {
    if (d_index_ < 0) {
      throw SimError("Register '" + name() + "': data input never connected");
    }
  }
  void lower(Lowering& lowering) override {
    const Signal& d = in(static_cast<std::size_t>(d_index_));
    lowering.emit(Phase::kOutput,
                  {.code = OpCode::kCopy, .dst = out_.slot(), .a = &state_});
    lowering.emit(
        Phase::kLatch,
        {.code = OpCode::kRegister,
         .wrap = Wrap::into(out_.format(), int(out_.format().frac_bits) -
                                               int(d.format().frac_bits)),
         .dst = &state_,
         .a = d.slot(),
         .c = enable_index_ >= 0
                  ? in(static_cast<std::size_t>(enable_index_)).slot()
                  : Lowering::one()});
  }
  void reset() override { state_ = init_; }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_i64(state_);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    state_ = out_.wrap(reader.read_i64());
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    return ResourceVec{slices_for_register(out_.format().word_bits), 0, 0};
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  i64 init_;
  i64 state_;
  int d_index_ = -1;
  int enable_index_ = -1;
  Signal& out_;
};

/// Delay: N-cycle delay line (SRL16-mapped in hardware).
class Delay : public Block {
 public:
  Delay(Model& model, std::string name, Signal& d, unsigned cycles)
      : Block(model, std::move(name)),
        cycles_(cycles),
        out_(make_output("out", d.format())),
        line_(cycles) {
    if (cycles == 0) {
      throw SimError("Delay '" + this->name() +
                     "': zero-cycle delay is a wire, use the signal");
    }
    connect_input(d);
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void lower(Lowering& lowering) override {
    line_.lower(lowering, out_, in(0).slot());
  }
  void reset() override { line_.reset(); }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_u32(cycles_);
    line_.save_state(writer);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    if (reader.read_u32() != cycles_) return false;
    line_.load_state(reader, out_);
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    // SRL16: one LUT per bit covers up to 16 stages.
    const unsigned width = out_.format().word_bits;
    return ResourceVec{ceil_div(width * ceil_div(cycles_, 16u), 2u), 0, 0};
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  unsigned cycles_;
  Signal& out_;
  StageRing line_;
};

/// Counter: free-running or enabled up-counter with wrap-around.
class Counter : public Block {
 public:
  Counter(Model& model, std::string name, FixFormat format, i64 limit,
          Signal* enable = nullptr, Signal* sync_reset = nullptr)
      : Block(model, std::move(name)),
        format_(format),
        limit_(limit),
        out_(make_output("count", format)) {
    format_.validate();
    if (limit_ <= 0 || limit_ > format_.max_raw() + 1) {
      throw SimError("Counter '" + this->name() + "': bad limit");
    }
    if (enable != nullptr) {
      enable_index_ = static_cast<int>(inputs().size());
      connect_input(*enable);
    }
    if (sync_reset != nullptr) {
      reset_index_ = static_cast<int>(inputs().size());
      connect_input(*sync_reset);
    }
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void lower(Lowering& lowering) override {
    // value_ stays in [0, limit), which the format holds exactly.
    lowering.emit(Phase::kOutput,
                  {.code = OpCode::kCopy, .dst = out_.slot(), .a = &value_});
    lowering.emit(
        Phase::kLatch,
        {.code = OpCode::kCounter,
         .k = limit_,
         .dst = &value_,
         .a = enable_index_ >= 0
                  ? in(static_cast<std::size_t>(enable_index_)).slot()
                  : Lowering::one(),
         .b = reset_index_ >= 0
                  ? in(static_cast<std::size_t>(reset_index_)).slot()
                  : Lowering::zero()});
  }
  void reset() override { value_ = 0; }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_i64(value_);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    const i64 value = reader.read_i64();
    if (value < 0 || value >= limit_) return false;
    value_ = value;
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    return ResourceVec{slices_for_adder(format_.word_bits), 0, 0};
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  FixFormat format_;
  i64 limit_;
  i64 value_ = 0;
  int enable_index_ = -1;
  int reset_index_ = -1;
  Signal& out_;
};

}  // namespace mbcosim::sysgen
