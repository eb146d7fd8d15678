// The compiled sysgen kernel (DESIGN.md §15). Model::elaborate() lowers
// the block graph once into a flat tape of ops over raw i64 slots — each
// signal's value, each block's state — and Model::step() is one loop over
// that tape. Formats are checked once, while lowering; every op carries
// the shifts, masks and bounds its conversion needs, precomputed, so a
// stepped cycle does no virtual dispatch, builds no Fix and validates no
// format. The tape is laid out in the three phases of the cycle-based
// semantics (see block.hpp): sequential outputs in block creation order,
// combinational ops in topological order, then latches in creation order.
//
// Ops point into storage that never moves after elaboration: the model's
// signal deque, blocks held by unique_ptr (whose state buffers are sized
// at construction) and the kernel's own temps, cast specs and tables.
//
// A pass also reports whether it changed any state (DESIGN.md §15,
// "Elided cycles"). Only the latch-phase state ops write slots that live
// from one cycle to the next — kRegister, kCounter, kRingPush, kRom,
// kRam and the kLatch fallback — and each ORs "my slot changed" into the
// pass's result; every other op writes a signal or a temp, which the next
// pass recomputes from state and inputs. The inputs are the GatewayIn
// slots the lowering registers; the kernel snapshots them on every pass.
#pragma once

#include <deque>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/types.hpp"

namespace mbcosim::sysgen {

class Block;

/// Fix::cast with kTruncate and kWrap, precomputed: shift the code left
/// (or right, truncating), then keep the low word bits of the destination
/// format and sign- or zero-extend them. Default-constructed, it is the
/// identity on all 64 bits.
struct Wrap {
  i64 keep = -1;  ///< -1 for signed formats, the word mask for unsigned
  u8 right = 0;   ///< bits dropped by an arithmetic shift
  u8 left = 0;    ///< bits gained
  u8 norm = 0;    ///< 64 - word_bits

  /// The code shifted left by `shift` bits (right when negative; |shift|
  /// <= 63) and wrapped into `to`, which must already be valid.
  static Wrap into(FixFormat to, int shift = 0) noexcept;

  [[nodiscard]] i64 operator()(i64 code) const noexcept {
    // Two left shifts: each stays below 64 even when all bits fall off.
    const u64 shifted = (static_cast<u64>(code >> right) << left) << norm;
    return (static_cast<i64>(shifted) >> norm) & keep;
  }
};

/// Fix::cast with any quantization and overflow mode, precomputed.
struct Cast {
  Wrap wrap;        ///< left shift and wrap into the word (right == 0)
  u8 right = 0;     ///< bits dropped by quantization
  bool round = false;
  bool saturate = false;
  i64 lo = 0;       ///< quantized codes in [lo, hi] fit after the left shift
  i64 hi = 0;
  i64 min = 0;      ///< saturation results
  i64 max = 0;

  static Cast into(FixFormat to, int shift, Quantization quantization,
                   Overflow overflow) noexcept;

  [[nodiscard]] i64 operator()(i64 code) const noexcept {
    if (right != 0) {
      // Round half up without forming code + 2^(right-1), which could
      // overflow: add the highest dropped bit instead.
      code = round ? (code >> right) + ((code >> (right - 1)) & 1)
                   : code >> right;
    }
    if (!saturate) return wrap(code);
    if (code > hi) return max;
    if (code < lo) return min;
    return static_cast<i64>(static_cast<u64>(code) << wrap.left);
  }
};

enum class OpCode : u8 {
  kCopy,         ///< dst = a
  kWrap,         ///< dst = wrap(a)
  kCast,         ///< dst = cast(a)
  kAdd,          ///< dst = wrap((a << sa) + (b << sb))
  kSub,          ///< dst = wrap((a << sa) - (b << sb))
  kMul,          ///< dst = wrap(a * b); the exact product fits in 63 bits
  kMulClamp,     ///< dst = 128-bit a * b clamped to [k, k2]
  kNeg,          ///< dst = wrap(-a)
  kShr,          ///< dst = a >> k
  kShrVar,       ///< dst = a >> min(unsigned b, k)
  kMux,          ///< dst = sources[min(unsigned a, k)]
  kCompare,      ///< dst = bit (sign(a << sa - b << sb) + 1) of k
  kAnd,          ///< dst = wrap(a & b)
  kOr,           ///< dst = wrap(a | b)
  kXor,          ///< dst = wrap(a ^ b)
  kNot,          ///< dst = wrap(~a)
  kRegister,     ///< if c: dst = wrap(a)
  kCounter,      ///< if b: dst = 0, else if a: dst = (dst + 1) mod k
  kRingRead,     ///< dst = cells[*a]
  kRingPush,     ///< cells[*dst] = a; *dst = (*dst + 1) mod k; always
                 ///< counted as a change
  kRom,          ///< dst = words[min(unsigned a, k)]
  kRam,          ///< i = min(unsigned a, k); dst = cells[i];
                 ///< if c: cells[i] = wrap(b)
  kOutputState,  ///< block->output_state()
  kPropagate,    ///< block->propagate()
  kLatch,        ///< block->latch(); a change unless
                 ///< block->latch_changed() says otherwise
  kEnd,          ///< end of the tape
};

/// One instruction of the tape.
struct Op {
  OpCode code = OpCode::kCopy;
  u8 sa = 0;  ///< left shift aligning operand a
  u8 sb = 0;  ///< left shift aligning operand b
  Wrap wrap{};  ///< conversion into the destination's format
  i64 k = 0;  ///< immediate; meaning per OpCode
  i64 k2 = 0;
  i64* dst = nullptr;
  const i64* a = nullptr;
  const i64* b = nullptr;
  const i64* c = nullptr;
  union {
    i64* cells;                 ///< kRingRead, kRingPush, kRam
    const i64* words;           ///< kRom
    const i64* const* sources;  ///< kMux
    const Cast* cast;           ///< kCast
    Block* block;               ///< kOutputState, kPropagate, kLatch
  } ext{};
};

/// The lowered model: the op tape and the storage it points into.
class Kernel {
 public:
  /// Advance one clock cycle and snapshot the inputs it read. Returns
  /// whether any state op changed its slot. Only a kernel from
  /// Lowering::finish() runs.
  [[nodiscard]] bool run();

  /// True when every registered input still holds the value the last
  /// run() read.
  [[nodiscard]] bool inputs_unchanged() const noexcept;

 private:
  friend class Lowering;

  std::vector<Op> tape_;
  std::vector<const i64*> inputs_;
  std::vector<i64> snapshot_;
  std::deque<i64> temps_;
  std::deque<Cast> casts_;
  std::vector<std::vector<const i64*>> tables_;
};

/// The phase of the clock cycle an op runs in (see block.hpp).
enum class Phase : u8 { kOutput, kPropagate, kLatch };

/// Builds a Kernel. Model::elaborate() lowers sequential blocks in
/// creation order, then combinational blocks in topological order; each
/// block appends its ops to the phases it runs in.
class Lowering {
 public:
  void emit(Phase phase, const Op& op) {
    phases_[static_cast<std::size_t>(phase)].push_back(op);
  }

  /// Emit `op`, whose exact result has `shift` fewer fraction bits than
  /// `to`, converted into `to` and stored at op.dst. Truncate-and-wrap
  /// conversions fuse into op.wrap; others run as a kCast after it.
  void emit_converted(Phase phase, Op op, FixFormat to, int shift,
                      Quantization quantization, Overflow overflow);

  /// Register a slot the environment writes between cycles (a GatewayIn's
  /// pending value); the kernel compares it against its last pass.
  void input(const i64* slot) {
    kernel_.inputs_.push_back(slot);
    kernel_.snapshot_.push_back(*slot);
  }

  /// A scratch slot, private to the op that writes it.
  [[nodiscard]] i64* temp() { return &kernel_.temps_.emplace_back(0); }
  /// An array of slot pointers for a kMux.
  [[nodiscard]] const i64* const* table(std::vector<const i64*> sources) {
    return kernel_.tables_.emplace_back(std::move(sources)).data();
  }

  /// Slots holding a constant, for enables and resets left unconnected.
  [[nodiscard]] static const i64* one() noexcept;
  [[nodiscard]] static const i64* zero() noexcept;

  /// The finished kernel: output, propagate, then latch ops.
  [[nodiscard]] Kernel finish() &&;

 private:
  Kernel kernel_;
  std::vector<Op> phases_[3];
};

}  // namespace mbcosim::sysgen
