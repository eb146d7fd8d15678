#include "sysgen/kernel.hpp"

#include <algorithm>
#include <iterator>

#include "common/bits.hpp"
#include "sysgen/block.hpp"

namespace mbcosim::sysgen {

namespace {
using i128 = __int128;

constexpr i64 kOne = 1;
constexpr i64 kZero = 0;

i64 shl(i64 code, u8 amount) noexcept {
  return static_cast<i64>(static_cast<u64>(code) << amount);
}

/// Store `next` in a state slot; true when that changed it.
bool update(i64& slot, i64 next) noexcept {
  const bool changed = slot != next;
  slot = next;
  return changed;
}

i64 clamp_index(i64 code, i64 last) noexcept {
  return static_cast<i64>(std::min(static_cast<u64>(code),
                                   static_cast<u64>(last)));
}
}  // namespace

Wrap Wrap::into(FixFormat to, int shift) noexcept {
  Wrap wrap;
  wrap.keep = to.sign == Signedness::kSigned
                  ? i64{-1}
                  : static_cast<i64>(low_mask64(to.word_bits));
  wrap.right = static_cast<u8>(std::max(-shift, 0));
  wrap.left = static_cast<u8>(std::max(shift, 0));
  wrap.norm = static_cast<u8>(64 - to.word_bits);
  return wrap;
}

Cast Cast::into(FixFormat to, int shift, Quantization quantization,
                Overflow overflow) noexcept {
  Cast cast;
  cast.wrap = Wrap::into(to, std::max(shift, 0));
  cast.right = static_cast<u8>(std::max(-shift, 0));
  cast.round = quantization == Quantization::kRoundHalfUp;
  cast.saturate = overflow == Overflow::kSaturate;
  cast.max = to.max_raw();
  cast.min = to.min_raw();
  // code << left lands in [min, max] iff code is in
  // [ceil(min / 2^left), floor(max / 2^left)]; min is 0 or -2^(word-1).
  cast.hi = cast.max >> cast.wrap.left;
  cast.lo = -((-cast.min) >> cast.wrap.left);
  return cast;
}

void Lowering::emit_converted(Phase phase, Op op, FixFormat to, int shift,
                              Quantization quantization, Overflow overflow) {
  if (overflow == Overflow::kWrap &&
      (quantization == Quantization::kTruncate || shift >= 0)) {
    op.wrap = Wrap::into(to, shift);
    emit(phase, op);
    return;
  }
  const Cast* cast = &kernel_.casts_.emplace_back(
      Cast::into(to, shift, quantization, overflow));
  // A bare kWrap is a pure conversion: the cast reads its source.
  i64* const dst = op.dst;
  const i64* source = op.a;
  if (op.code != OpCode::kWrap) {
    op.dst = temp();  // the exact result, op.wrap left at identity
    emit(phase, op);
    source = op.dst;
  }
  emit(phase, Op{.code = OpCode::kCast, .dst = dst, .a = source,
                 .ext = {.cast = cast}});
}

const i64* Lowering::one() noexcept { return &kOne; }
const i64* Lowering::zero() noexcept { return &kZero; }

Kernel Lowering::finish() && {
  for (std::vector<Op>& phase : phases_) {
    kernel_.tape_.insert(kernel_.tape_.end(), phase.begin(), phase.end());
  }
  kernel_.tape_.push_back(Op{.code = OpCode::kEnd});
  return std::move(kernel_);
}

bool Kernel::inputs_unchanged() const noexcept {
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (*inputs_[i] != snapshot_[i]) return false;
  }
  return true;
}

bool Kernel::run() {
  for (std::size_t i = 0; i < inputs_.size(); ++i) snapshot_[i] = *inputs_[i];
  // Set by the state ops whenever they change a slot.
  bool changed = false;
  // Threaded dispatch (it measured faster than a switch): each handler
  // jumps straight to the next op's handler, in OpCode order; finish()
  // ends the tape with a kEnd op.
  static constexpr void* kHandlers[] = {
      &&copy, &&wrap, &&cast, &&add, &&sub, &&mul, &&mul_clamp, &&neg,
      &&shr, &&shr_var, &&mux, &&compare, &&and_, &&or_, &&xor_, &&not_,
      &&reg, &&counter, &&ring_read, &&ring_push, &&rom, &&ram,
      &&output_state, &&propagate, &&latch, &&end};
  static_assert(std::size(kHandlers) ==
                static_cast<std::size_t>(OpCode::kEnd) + 1);
  const Op* op = tape_.data();
#define MBC_NEXT()                                  \
  do {                                              \
    ++op;                                           \
    goto* kHandlers[static_cast<u8>(op->code)];     \
  } while (0)
  goto* kHandlers[static_cast<u8>(op->code)];
copy:
  *op->dst = *op->a;
  MBC_NEXT();
wrap:
  *op->dst = op->wrap(*op->a);
  MBC_NEXT();
cast:
  *op->dst = (*op->ext.cast)(*op->a);
  MBC_NEXT();
add:
  *op->dst = op->wrap(shl(*op->a, op->sa) + shl(*op->b, op->sb));
  MBC_NEXT();
sub:
  *op->dst = op->wrap(shl(*op->a, op->sa) - shl(*op->b, op->sb));
  MBC_NEXT();
mul:
  *op->dst = op->wrap(*op->a * *op->b);
  MBC_NEXT();
mul_clamp: {
  const i128 product = i128(*op->a) * i128(*op->b);
  *op->dst = product < op->k    ? op->k
             : product > op->k2 ? op->k2
                                : static_cast<i64>(product);
  MBC_NEXT();
}
neg:
  *op->dst = op->wrap(-*op->a);
  MBC_NEXT();
shr:
  *op->dst = *op->a >> op->k;
  MBC_NEXT();
shr_var:
  *op->dst = *op->a >> clamp_index(*op->b, op->k);
  MBC_NEXT();
mux:
  *op->dst = *op->ext.sources[clamp_index(*op->a, op->k)];
  MBC_NEXT();
compare: {
  const i128 a = i128(*op->a) << op->sa;
  const i128 b = i128(*op->b) << op->sb;
  const int order = (a > b) - (a < b);
  *op->dst = (op->k >> (order + 1)) & 1;
  MBC_NEXT();
}
and_:
  *op->dst = op->wrap(*op->a & *op->b);
  MBC_NEXT();
or_:
  *op->dst = op->wrap(*op->a | *op->b);
  MBC_NEXT();
xor_:
  *op->dst = op->wrap(*op->a ^ *op->b);
  MBC_NEXT();
not_:
  *op->dst = op->wrap(~*op->a);
  MBC_NEXT();
reg:
  if (*op->c != 0) changed |= update(*op->dst, op->wrap(*op->a));
  MBC_NEXT();
counter:
  if (*op->b != 0) {
    changed |= update(*op->dst, 0);
  } else if (*op->a != 0) {
    changed |= update(*op->dst, *op->dst + 1 == op->k ? 0 : *op->dst + 1);
  }
  MBC_NEXT();
ring_read:
  *op->dst = op->ext.cells[*op->a];
  MBC_NEXT();
ring_push:
  op->ext.cells[*op->dst] = *op->a;
  *op->dst = *op->dst + 1 == op->k ? 0 : *op->dst + 1;
  changed = true;
  MBC_NEXT();
rom:
  changed |= update(*op->dst, op->ext.words[clamp_index(*op->a, op->k)]);
  MBC_NEXT();
ram: {
  i64& cell = op->ext.cells[clamp_index(*op->a, op->k)];
  changed |= update(*op->dst, cell);  // read-before-write
  if (*op->c != 0) changed |= update(cell, op->wrap(*op->b));
  MBC_NEXT();
}
output_state:
  op->ext.block->output_state();
  MBC_NEXT();
propagate:
  op->ext.block->propagate();
  MBC_NEXT();
latch:
  op->ext.block->latch();
  changed |= op->ext.block->latch_changed();
  MBC_NEXT();
end:
  return changed;
#undef MBC_NEXT
}

}  // namespace mbcosim::sysgen
