#include "sysgen/kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <utility>

#include "common/bits.hpp"
#include "common/status.hpp"
#include "sysgen/block.hpp"
#include "sysgen/signal.hpp"

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

void Lowering::lower(Block& block) {
  block.lower(*this);
  ++blocks_;
}

namespace {
constexpr u32 kNone = ~u32{0};

/// Union-find over op indices; each set's root is its smallest index.
class Partition {
 public:
  explicit Partition(std::size_t size) : parent_(size) {
    std::iota(parent_.begin(), parent_.end(), u32{0});
  }
  u32 find(u32 x) noexcept {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(u32 x, u32 y) noexcept {
    x = find(x);
    y = find(y);
    if (x != y) parent_[std::max(x, y)] = std::min(x, y);
  }

 private:
  std::vector<u32> parent_;
};

/// Slot addresses mapped to op or input indices, by open addressing in
/// a table sized once.
class SlotMap {
 public:
  explicit SlotMap(std::size_t entries)
      : shift_(64 - static_cast<int>(std::bit_width(2 * entries + 1))),
        keys_(std::size_t{1} << (64 - shift_), 0),
        values_(keys_.size(), kNone) {}

  /// Map `slot` to `value` unless it is mapped already; returns the value
  /// it maps to.
  u32 insert(const i64* slot, u32 value) noexcept {
    for (std::size_t i = home(slot);; i = (i + 1) & (keys_.size() - 1)) {
      if (keys_[i] == key(slot)) return values_[i];
      if (keys_[i] == 0) {
        keys_[i] = key(slot);
        values_[i] = value;
        return value;
      }
    }
  }
  /// The value `slot` maps to, or kNone.
  [[nodiscard]] u32 find(const i64* slot) const noexcept {
    for (std::size_t i = home(slot);; i = (i + 1) & (keys_.size() - 1)) {
      if (keys_[i] == key(slot)) return values_[i];
      if (keys_[i] == 0) return kNone;
    }
  }

 private:
  static std::uintptr_t key(const i64* slot) noexcept {
    return reinterpret_cast<std::uintptr_t>(slot);
  }
  [[nodiscard]] std::size_t home(const i64* slot) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<u64>(key(slot)) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  int shift_;
  std::vector<std::uintptr_t> keys_;  ///< 0 marks a free entry
  std::vector<u32> values_;
};

/// Calls `fn` on every slot `op` reads that another op may write: its
/// operands, a kMux's table, a fallback block's inputs. A fallback
/// output_state() reads only its block's own state.
template <typename Fn>
void for_each_read(const Op& op, Fn&& fn) {
  switch (op.code) {
    case OpCode::kOutputState:
      return;
    case OpCode::kPropagate:
    case OpCode::kLatch:
      for (const Signal* input : op.ext.block->inputs()) fn(input->slot());
      return;
    case OpCode::kMux:
      for (i64 i = 0; i <= op.k; ++i) fn(op.ext.sources[i]);
      break;
    default:
      break;
  }
  for (const i64* slot : {op.a, op.b, op.c}) {
    if (slot != nullptr) fn(slot);
  }
}

/// Calls `fn` on every slot `op` writes that another op may read.
template <typename Fn>
void for_each_write(const Op& op, Fn&& fn) {
  switch (op.code) {
    case OpCode::kOutputState:
    case OpCode::kPropagate:
      for (const Signal* output : op.ext.block->outputs()) {
        fn(output->slot());
      }
      return;
    case OpCode::kLatch:
      return;
    default:
      if (op.dst != nullptr) fn(op.dst);
  }
}

/// Ops that write slots living from one cycle to the next.
bool is_state_op(OpCode code) noexcept {
  switch (code) {
    case OpCode::kRegister:
    case OpCode::kCounter:
    case OpCode::kRingPush:
    case OpCode::kRom:
    case OpCode::kRam:
    case OpCode::kLatch:
      return true;
    default:
      return false;
  }
}

/// The fan variant of an op code, or kEnd when it has none.
OpCode fan_code(OpCode code) noexcept {
  switch (code) {
    case OpCode::kCopy:
      return OpCode::kCopyFan;
    case OpCode::kRingRead:
      return OpCode::kRingReadFan;
    case OpCode::kOutputState:
      return OpCode::kOutputStateFan;
    default:
      return OpCode::kEnd;
  }
}
}  // namespace

Kernel Lowering::finish() && {
  const auto count = static_cast<u32>(ops_.size());
  for (u32 i = 0; i < count; ++i) {
    if (is_state_op(ops_[i].code) && phases_[i] != Phase::kLatch) {
      throw SimError("sysgen lowering: a state op outside the latch phase");
    }
  }

  // All ops of one block share a region: its phase-0 ops read the state
  // its phase-2 ops write, and its fallback ops run one object. Blocks
  // emit their ops contiguously.
  Partition partition(count);
  for (u32 i = 1; i < count; ++i) {
    if (owners_[i] == owners_[i - 1]) partition.unite(i, i - 1);
  }

  // Every slot an op writes maps to its writer, every input slot to its
  // index tagged kInput.
  constexpr u32 kInput = u32{1} << 31;
  SlotMap slots(count + kernel_.inputs_.size());
  for (u32 i = 0; i < count; ++i) {
    for_each_write(ops_[i], [&](const i64* slot) {
      if (slots.insert(slot, i) != i) {
        throw SimError("sysgen lowering: two ops write one slot");
      }
    });
  }
  for (u32 i = 0; i < kernel_.inputs_.size(); ++i) {
    slots.insert(kernel_.inputs_[i], i | kInput);
  }

  // A source op is a block's only op: a phase-1 copy of a slot no op
  // writes (a constant, or a gateway input). Nothing unites it with
  // another op, so it is a region of its own, which a pass can run
  // before every other body.
  std::vector<u8> source(count, 0);
  for (u32 i = 0; i < count; ++i) {
    const Op& op = ops_[i];
    const bool alone = (i == 0 || owners_[i - 1] != owners_[i]) &&
                       (i + 1 == count || owners_[i + 1] != owners_[i]);
    if (alone && phases_[i] == Phase::kPropagate && op.code == OpCode::kCopy) {
      const u32 writer = slots.find(op.a);
      source[i] = writer == kNone || (writer & kInput) != 0;
    }
  }

  // A value computed within the cycle unites its writer and its readers.
  // A phase-0 op (a function of its block's state) and a source op tell
  // their readers instead, through a fanout list. Phase-0 ops read state
  // only, so their readers all run later in the cycle.
  auto fans_out = [&](u32 writer) {
    return source[writer] != 0 ||
           (phases_[writer] == Phase::kOutput &&
            fan_code(ops_[writer].code) != OpCode::kEnd);
  };
  std::vector<std::pair<u32, u32>> fan_edges;    // (writer op, reader op)
  std::vector<std::pair<u32, u32>> input_edges;  // (input, reader op)
  for (u32 reader = 0; reader < count; ++reader) {
    for_each_read(ops_[reader], [&](const i64* slot) {
      const u32 writer = slots.find(slot);
      if (writer == kNone) return;
      if (phases_[reader] == Phase::kOutput &&
          ((writer & kInput) != 0 || !is_state_op(ops_[writer].code))) {
        throw SimError("sysgen lowering: a phase-0 op reads a value that "
                       "is not state");
      }
      if ((writer & kInput) != 0) {
        input_edges.emplace_back(writer & ~kInput, reader);
      } else if (fans_out(writer)) {
        fan_edges.emplace_back(writer, reader);
      } else {
        partition.unite(writer, reader);
      }
    });
  }

  // Number the regions, sources first, in emission order.
  std::vector<u32> region(count, kNone);
  u32 regions = 0;
  for (u32 i = 0; i < count; ++i) {
    if (source[i] != 0) region[i] = regions++;
  }
  const u32 sources = regions;
  for (u32 i = 0; i < count; ++i) {
    if (source[i] != 0) continue;
    const u32 root = partition.find(i);  // root <= i: numbered already
    if (region[root] == kNone) region[root] = regions++;
    region[i] = region[root];
  }

  // Lay each region's ops out as two segments, in emission order: its
  // phase-0 ops, and its body — its phase-1 ops, then its phase-2 ops.
  // A body reads no other region's phase-1 results and writes only its
  // own state, so it can run whole once the phase-0 and source values it
  // reads are computed. Each segment ends in a kEnd naming its region;
  // every phase-0 segment comes first, then the bodies (the sources'
  // first), so a full pass walks the tape front to back.
  Kernel& kernel = kernel_;
  kernel.regions_.assign(regions, Kernel::Region{});
  std::vector<u32> sizes(std::size_t{regions} * 2, 0);
  auto segment = [&](u32 i) {
    return std::size_t{region[i]} * 2 + (phases_[i] == Phase::kOutput ? 0 : 1);
  };
  for (u32 i = 0; i < count; ++i) ++sizes[segment(i)];
  std::vector<u32> cursor(sizes.size(), 0);
  u32 at = 0;
  for (std::size_t part = 0; part < 2; ++part) {
    for (u32 r = 0; r < regions; ++r) {
      const std::size_t index = std::size_t{r} * 2 + part;
      if (sizes[index] == 0) continue;
      (part == 0 ? kernel.regions_[r].outputs : kernel.regions_[r].body) = at;
      cursor[index] = at;
      at += sizes[index] + 1;
    }
  }
  kernel.tape_.assign(at, Op{.code = OpCode::kEnd});
  // Phase-1 ops go before phase-2 ops: place the ops phase by phase.
  std::vector<u32> position(count);
  for (const Phase phase : {Phase::kOutput, Phase::kPropagate, Phase::kLatch}) {
    for (u32 i = 0; i < count; ++i) {
      if (phases_[i] != phase) continue;
      position[i] = cursor[segment(i)]++;
      kernel.tape_[position[i]] = ops_[i];
    }
  }
  for (std::size_t index = 0; index < sizes.size(); ++index) {
    if (sizes[index] != 0) {
      kernel.tape_[cursor[index]].k = static_cast<i64>(index / 2);
    }
  }

  // Fanout lists: each writer's reader regions once, without its own.
  // The edges are bucketed by writer (a counting sort); `seen` holds, per
  // region, the last writer that listed it.
  std::vector<u32> first(std::size_t{count} + 1, 0);
  for (const auto& edge : fan_edges) ++first[edge.first + 1];
  for (u32 i = 0; i < count; ++i) first[i + 1] += first[i];
  std::vector<u32> readers(fan_edges.size());
  for (const auto& [writer, reader] : fan_edges) {
    readers[first[writer]++] = region[reader];  // then first[w] ends w
  }
  std::vector<u32> seen(regions, kNone);
  for (u32 writer = 0, begin = 0; writer < count; begin = first[writer++]) {
    if (begin == first[writer]) continue;
    Op& op = kernel.tape_[position[writer]];
    op.k = static_cast<i64>(kernel.fanout_.size());
    seen[region[writer]] = writer;
    for (u32 e = begin; e < first[writer]; ++e) {
      if (seen[readers[e]] == writer) continue;
      seen[readers[e]] = writer;
      kernel.fanout_.push_back(readers[e]);
    }
    op.k2 = static_cast<i64>(kernel.fanout_.size());
    if (op.k2 != op.k) op.code = fan_code(op.code);
  }
  // Inputs are few, each read by its gateway's copy.
  std::fill(seen.begin(), seen.end(), kNone);
  kernel.input_fanout_.assign(kernel.inputs_.size() + 1, 0);
  for (u32 i = 0; i < kernel.inputs_.size(); ++i) {
    kernel.input_fanout_[i] = static_cast<u32>(kernel.fanout_.size());
    for (const auto& [input, reader] : input_edges) {
      if (input != i || seen[region[reader]] == i) continue;
      seen[region[reader]] = i;
      kernel.fanout_.push_back(region[reader]);
    }
  }
  kernel.input_fanout_.back() = static_cast<u32>(kernel.fanout_.size());

  kernel.sources_ = sources;
  kernel.stamp_.assign(regions, 0);
  kernel.sources_queue_.segments.assign(sources, 0);
  for (Kernel::Queue* queue :
       {&kernel.outputs_queue_, &kernel.bodies_queue_, &kernel.next_outputs_,
        &kernel.next_bodies_}) {
    queue->segments.assign(regions - sources, 0);
  }
  kernel.full_ = true;
  return std::move(kernel_);
}

bool Kernel::inputs_unchanged() const noexcept {
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (*inputs_[i] != snapshot_[i]) return false;
  }
  return true;
}

void Kernel::schedule(u32 region) noexcept {
  if (stamp_[region] == pass_) return;
  stamp_[region] = pass_;
  const Region& segments = regions_[region];
  if (region < sources_) {
    sources_queue_.push(segments.body);
    return;
  }
  if (segments.outputs != kNoSegment) outputs_queue_.push(segments.outputs);
  if (segments.body != kNoSegment) bodies_queue_.push(segments.body);
}

void Kernel::run() {
  if (full_) {
    full_ = false;
    for (u32 r = 0; r < regions_.size(); ++r) schedule(r);
  }
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (*inputs_[i] == snapshot_[i]) continue;
    snapshot_[i] = *inputs_[i];
    for (u32 j = input_fanout_[i]; j < input_fanout_[i + 1]; ++j) {
      schedule(fanout_[j]);
    }
  }
  if (sources_queue_.size == 0 && outputs_queue_.size == 0 &&
      bodies_queue_.size == 0) {
    return;
  }

  // Threaded dispatch (it measured faster than a switch): each handler
  // jumps straight to the next op's handler, in OpCode order, and the
  // kEnd closing each segment picks the next segment to run.
  static constexpr void* kHandlers[] = {
      &&copy, &&wrap, &&cast, &&add, &&sub, &&mul, &&mul_clamp, &&neg,
      &&shr, &&shr_var, &&mux, &&compare, &&and_, &&or_, &&xor_, &&not_,
      &&reg, &&counter, &&ring_read, &&ring_push, &&rom, &&ram,
      &&output_state, &&propagate, &&latch, &&copy_fan, &&ring_read_fan,
      &&output_state_fan, &&end};
  static_assert(std::size(kHandlers) ==
                static_cast<std::size_t>(OpCode::kEnd) + 1);
  // Stage 0 runs the queued sources (they read nothing computed in the
  // cycle), stage 1 the queued phase-0 segments, stage 2 the queued
  // bodies. Fanout marks, made in stages 0 and 1, queue bodies only.
  const Op* const tape = tape_.data();
  const Region* const regions = regions_.data();
  const u32* const fanout = fanout_.data();
  u64* const stamp = stamp_.data();
  const u64 pass = pass_;
  u32* const bodies = bodies_queue_.segments.data();
  u32 queued_bodies = bodies_queue_.size;
  unsigned stage = 0;
  const u32* cursor = sources_queue_.segments.data();
  const u32* stop = cursor + sources_queue_.size;
  // Set by the state ops of the running body whenever they change a
  // slot.
  bool changed = false;
  const Op* op = nullptr;
#define MBC_NEXT()                                  \
  do {                                              \
    ++op;                                           \
    goto* kHandlers[static_cast<u8>(op->code)];     \
  } while (0)
#define MBC_MARK_FANOUT()                                 \
  for (i64 j = op->k; j < op->k2; ++j) {                  \
    const u32 target = fanout[j];                         \
    if (stamp[target] != pass) {                          \
      stamp[target] = pass;                               \
      bodies[queued_bodies++] = regions[target].body;     \
    }                                                     \
  }
next_segment:
  while (cursor == stop) {
    if (stage == 2) goto done;
    if (++stage == 1) {
      cursor = outputs_queue_.segments.data();
      stop = cursor + outputs_queue_.size;
    } else {
      cursor = bodies;
      stop = cursor + queued_bodies;
    }
  }
  op = tape + *cursor++;
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
copy_fan:
  if (*op->dst != *op->a) {
    *op->dst = *op->a;
    MBC_MARK_FANOUT();
  }
  MBC_NEXT();
ring_read_fan: {
  const i64 value = op->ext.cells[*op->a];
  if (*op->dst != value) {
    *op->dst = value;
    MBC_MARK_FANOUT();
  }
  MBC_NEXT();
}
output_state_fan:
  op->ext.block->output_state();
  MBC_MARK_FANOUT();
  MBC_NEXT();
end:
  if (changed) {
    // The region runs again next pass, phase-0 segment and all.
    const auto region = static_cast<u32>(op->k);
    stamp[region] = pass + 1;
    if (regions[region].outputs != kNoSegment) {
      next_outputs_.push(regions[region].outputs);
    }
    next_bodies_.push(regions[region].body);
    changed = false;
  }
  goto next_segment;
#undef MBC_MARK_FANOUT
#undef MBC_NEXT
done:
  sources_queue_.size = 0;
  std::swap(outputs_queue_, next_outputs_);
  std::swap(bodies_queue_, next_bodies_);
  next_outputs_.size = 0;
  next_bodies_.size = 0;
  ++pass_;
}

}  // namespace mbcosim::sysgen
