#include "sysgen/kernel.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <numeric>
#include <string>
#include <utility>

#include "common/bits.hpp"
#include "common/status.hpp"
#include "sysgen/block.hpp"
#include "sysgen/compiled.hpp"
#include "sysgen/ops.hpp"
#include "sysgen/signal.hpp"

namespace mbcosim::sysgen {

namespace {
using i128 = __int128;

i64 shl(i64 code, u8 amount) noexcept {
  return static_cast<i64>(static_cast<u64>(code) << amount);
}

using ops::clamp_index;
using ops::update;
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
  const u32 cast = append(kernel_.casts_,
                          Cast::into(to, shift, quantization, overflow));
  // A bare kWrap is a pure conversion: the cast reads its source.
  const u32 dst = op.dst;
  u32 source = op.a;
  if (op.code != OpCode::kWrap) {
    op.dst = temp();  // the exact result, op.wrap left at identity
    emit(phase, op);
    source = op.dst;
  }
  emit(phase, Op{.code = OpCode::kCast, .ext = cast, .dst = dst, .a = source});
}

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

/// Ops that write slots living from one cycle to the next.
bool is_state_op(OpCode code) noexcept {
  switch (code) {
    case OpCode::kRegister:
    case OpCode::kCounter:
    case OpCode::kRingPush:
    case OpCode::kRom:
    case OpCode::kRam:
    case OpCode::kSerialize:
    case OpCode::kLatch:
      return true;
    default:
      return false;
  }
}

constexpr u64 bit(OpCode c) noexcept { return u64{1} << static_cast<u8>(c); }
/// The op codes that read operand b, and those that read c. Every op code
/// but the fallbacks (kOutputState, kPropagate, kLatch) reads a.
constexpr u64 kReadsB =
    bit(OpCode::kAdd) | bit(OpCode::kSub) | bit(OpCode::kMul) |
    bit(OpCode::kMulClamp) | bit(OpCode::kShrVar) | bit(OpCode::kCompare) |
    bit(OpCode::kAnd) | bit(OpCode::kOr) | bit(OpCode::kXor) |
    bit(OpCode::kCounter) | bit(OpCode::kRam) | bit(OpCode::kSerialize);
constexpr u64 kReadsC = bit(OpCode::kRegister) | bit(OpCode::kRam);

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

/// The cheapest op code computing the same bits as `op` (kernel.hpp,
/// "Specialised ops"); op.code itself when no cheaper form applies.
OpCode specialised(const Op& op) noexcept {
  if (op.code == OpCode::kCompare) {
    return op.sa == 0 && op.sb == 0 ? OpCode::kCompareI64 : op.code;
  }
  if (!op.wrap.extends()) return op.code;
  const bool aligned = op.sa == 0 && op.sb == 0;
  switch (op.code) {
    case OpCode::kWrap:
      return OpCode::kWrapExt;
    case OpCode::kAdd:
      return aligned ? OpCode::kAddExt : op.code;
    case OpCode::kSub:
      return aligned ? OpCode::kSubExt : op.code;
    case OpCode::kMul:
      return OpCode::kMulExt;
    case OpCode::kNeg:
      return OpCode::kNegExt;
    case OpCode::kAnd:
      return OpCode::kAndExt;
    case OpCode::kOr:
      return OpCode::kOrExt;
    case OpCode::kXor:
      return OpCode::kXorExt;
    case OpCode::kNot:
      return OpCode::kNotExt;
    case OpCode::kRegister:
      return op.c == Lowering::one() ? OpCode::kRegisterAlways
                                     : OpCode::kRegisterExt;
    default:
      return op.code;
  }
}
}  // namespace

Kernel Lowering::finish() && {
  const auto count = static_cast<u32>(ops_.size());
  const std::size_t slots = kernel_.arena_->size();
  // An op may name any slot or table entry (Block::lower is public): each
  // must exist, kNoSlot included when the op's code uses the operand.
  auto entry = [](const auto& table, u64 index) -> decltype(auto) {
    if (index >= table.size()) {
      throw SimError("sysgen lowering: an op names entry " +
                     std::to_string(index) + " of a table of " +
                     std::to_string(table.size()));
    }
    return table[index];
  };
  auto check_slot = [&](u64 slot) { (void)entry(*kernel_.arena_, slot); };
  // Calls `fn` on every slot `op` reads that another op may write: its
  // operands, a kMux's sources, a serializer's values, a fallback block's
  // inputs, and the first and last cells of a memory op. A fallback
  // output_state() reads only its block's own state.
  auto for_each_read = [&](const Op& op, auto&& fn) {
    switch (op.code) {
      case OpCode::kOutputState:
        return;
      case OpCode::kPropagate:
      case OpCode::kLatch:
        for (const Signal* in : entry(kernel_.blocks_, op.ext)->inputs()) {
          fn(in->slot());
        }
        return;
      case OpCode::kCast:
        (void)entry(kernel_.casts_, op.ext);
        break;
      case OpCode::kMux:  // sources [ext, ext + k]
        (void)entry(kernel_.mux_sources_, op.k < 0 ? ~u64{0} : op.ext + op.k);
        for (i64 i = 0; i <= op.k; ++i) fn(kernel_.mux_sources_[op.ext + i]);
        break;
      case OpCode::kSerialize:
        for (const u32 v : entry(kernel_.queues_, op.ext)->values) fn(v);
        break;
      case OpCode::kRingRead:
      case OpCode::kRingPush:
      case OpCode::kRom:
      case OpCode::kRam: {
        // Cells [ext, ext + k) of a ring push, [ext, ext + k] of a memory.
        const i64 last = op.code == OpCode::kRingRead   ? 0
                         : op.code == OpCode::kRingPush ? op.k - 1
                                                        : op.k;
        check_slot(last < 0 ? slots : op.ext + static_cast<u64>(last));
        fn(op.ext);
        break;
      }
      default:
        break;
    }
    fn(op.a);
    if (op.b != kNoSlot || (kReadsB & bit(op.code)) != 0) fn(op.b);
    if (op.c != kNoSlot || (kReadsC & bit(op.code)) != 0) fn(op.c);
  };
  // Calls `fn` on every slot `op` writes that another op may read.
  auto for_each_write = [&](const Op& op, auto&& fn) {
    switch (op.code) {
      case OpCode::kOutputState:
      case OpCode::kPropagate:
        for (const Signal* out : entry(kernel_.blocks_, op.ext)->outputs()) {
          fn(out->slot());
        }
        return;
      case OpCode::kLatch:
        return;
      case OpCode::kSerialize:
        fn(entry(kernel_.queues_, op.ext)->front);
        fn(entry(kernel_.queues_, op.ext)->busy);
        return;
      default:
        fn(op.dst);
    }
  };
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
  std::vector<u32> writers(slots, kNone);
  auto claim = [&](u32 slot, u32 writer) {
    check_slot(slot);
    if (writers[slot] != kNone) {
      throw SimError("sysgen lowering: two ops write one slot");
    }
    writers[slot] = writer;
  };
  for (u32 i = 0; i < count; ++i) {
    for_each_write(ops_[i], [&](u32 slot) { claim(slot, i); });
  }
  for (u32 i = 0; i < kernel_.inputs_.size(); ++i) {
    check_slot(kernel_.inputs_[i]);
    claim(kernel_.input_outputs_[i], i | kInput);
  }

  // A source op is a block's only op: a phase-1 copy of a slot no op
  // writes (a constant), or of a gateway's signal. Nothing unites it
  // with another op, so it is a region of its own, which a pass can run
  // before every other body.
  std::vector<u8> source(count, 0);
  for (u32 i = 0; i < count; ++i) {
    const Op& op = ops_[i];
    const bool alone = (i == 0 || owners_[i - 1] != owners_[i]) &&
                       (i + 1 == count || owners_[i + 1] != owners_[i]);
    if (alone && phases_[i] == Phase::kPropagate && op.code == OpCode::kCopy &&
        op.a < slots) {
      source[i] = writers[op.a] == kNone || (writers[op.a] & kInput) != 0;
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
    for_each_read(ops_[reader], [&](u32 slot) {
      check_slot(slot);
      const u32 writer = writers[slot];
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
  kernel.regions_.assign(regions, RegionSegments{});
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
  // Each kEnd names its region and counts its segment's ops, itself
  // included (KernelStats).
  for (std::size_t index = 0; index < sizes.size(); ++index) {
    if (sizes[index] != 0) {
      kernel.tape_[cursor[index]].k = static_cast<i64>(index / 2);
      kernel.tape_[cursor[index]].k2 = static_cast<i64>(sizes[index]) + 1;
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
  // Inputs are few.
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

  for (Op& op : kernel.tape_) op.code = specialised(op);

  kernel.sources_ = sources;
  kernel.stamp_.assign(regions, 0);
  kernel.sources_queue_.segments.assign(sources, 0);
  for (std::vector<u32>* queue :
       {&kernel.outputs_queue_.segments, &kernel.bodies_queue_.segments,
        &kernel.next_outputs_, &kernel.next_bodies_}) {
    queue->assign(regions - sources, 0);
  }
  kernel.full_ = true;
  kernel.bind();
  return std::move(kernel_);
}

namespace {
/// Two 64-bit lanes over a stream of words.
class Hasher {
 public:
  void add(u64 word) noexcept {
    lo_ = (lo_ ^ word) * 0x9e3779b97f4a7c15ull;
    lo_ ^= lo_ >> 29;
    hi_ = std::rotl(hi_ + word, 23) * 0xc2b2ae3d27d4eb4full;
  }
  [[nodiscard]] Fingerprint finish() const noexcept {
    auto mix = [](u64 x) {
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      return x ^ (x >> 31);
    };
    return {.lo = mix(lo_), .hi = mix(hi_ ^ lo_)};
  }

 private:
  u64 lo_ = 0x243f6a8885a308d3ull;
  u64 hi_ = 0x13198a2e03707344ull;
};

}  // namespace

void Kernel::bind() {
  // Slots enter as they are: a compiled pass names them as literals.
  Hasher hash;
  hash.add(arena_->size());
  hash.add(tape_.size());
  for (const Op& op : tape_) {
    hash.add(static_cast<u64>(op.code) | u64{op.sa} << 8 | u64{op.sb} << 16 |
             u64{op.wrap.right} << 24 | u64{op.wrap.left} << 32 |
             u64{op.wrap.norm} << 40);
    hash.add(static_cast<u64>(op.wrap.keep));
    hash.add(static_cast<u64>(op.k));
    hash.add(static_cast<u64>(op.k2));
    hash.add(u64{op.dst} << 32 | op.a);
    hash.add(u64{op.b} << 32 | op.c);
    // A first cell, a side-table index, or a fallback block by lowering
    // order; then what the indexed table entry holds.
    hash.add(op.ext);
    switch (op.code) {
      case OpCode::kMux:
        for (i64 i = 0; i <= op.k; ++i) hash.add(mux_sources_[op.ext + i]);
        break;
      case OpCode::kSerialize: {
        const SerialQueue& queue = *queues_[op.ext];
        hash.add(queue.values.size());
        for (const u32 value : queue.values) hash.add(value);
        hash.add(u64{queue.front} << 32 | queue.busy);
        break;
      }
      case OpCode::kRom:
        for (i64 i = 0; i <= op.k; ++i) {
          hash.add(static_cast<u64>((*arena_)[op.ext + i]));
        }
        break;
      case OpCode::kCast: {
        const Cast& cast = casts_[op.ext];
        hash.add(u64{cast.wrap.left} | u64{cast.wrap.norm} << 8 |
                 u64{cast.right} << 16 | u64{cast.round} << 24 |
                 u64{cast.saturate} << 32);
        for (const i64 value : {cast.wrap.keep, cast.lo, cast.hi, cast.min,
                                cast.max}) {
          hash.add(static_cast<u64>(value));
        }
        break;
      }
      default:
        break;
    }
  }
  hash.add(sources_);
  for (const RegionSegments& region : regions_) {
    hash.add(u64{region.outputs} << 32 | region.body);
  }
  hash.add(fanout_.size());
  for (const u32 target : fanout_) hash.add(target);
  fingerprint_ = hash.finish();
  design_ = find_compiled(fingerprint_, tape_.size());
}

std::size_t Kernel::count(OpCode code) const noexcept {
  return static_cast<std::size_t>(std::count_if(
      tape_.begin(), tape_.end(),
      [code](const Op& op) { return op.code == code; }));
}

bool Kernel::inputs_unchanged() const noexcept {
  const i64* const s = arena_->data();
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (s[inputs_[i]] != s[input_outputs_[i]]) return false;
  }
  return true;
}

void Kernel::mark_changed_inputs() noexcept {
  i64* const s = arena_->data();
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (s[inputs_[i]] == s[input_outputs_[i]]) continue;
    s[input_outputs_[i]] = s[inputs_[i]];
    // A full pass runs every region anyway.
    if (full_) continue;
    // As a fanout mark: the readers' bodies only, since no phase-0 op
    // reads an input; a reader that is a source runs with the sources.
    for (u32 j = input_fanout_[i]; j < input_fanout_[i + 1]; ++j) {
      const u32 region = fanout_[j];
      if (stamp_[region] == pass_) continue;
      stamp_[region] = pass_;
      (region < sources_ ? sources_queue_ : bodies_queue_)
          .push(regions_[region].body);
    }
  }
}

Cycle Kernel::run_cycles(Cycle cycles, Ports* ports, Quiescence* quiescence) {
  // A model alone that has settled repeats its last cycle all call long.
  if (ports == nullptr && settled()) return 0;
  const i64* const s = arena_->data();
  const Cycle window = quiescence != nullptr ? quiescence->window : 0;
  // Whether the FIFO state last presented has work for the interface.
  bool active = false;
  // The FIFOs may differ from what the gateways last presented: the
  // processor side may have moved words since the last call.
  bool stale = ports != nullptr;
  for (Cycle i = 0; i < cycles; ++i) {
    bool presented = i == 0;
    if (stale) {
      active = ports->present(ports->owner);
      stale = false;
      presented = true;
    }
    if (window != 0) {
      Cycle& idle = quiescence->idle_streak;
      if (active || ports->wrote_last_cycle) {
        idle = 0;
      } else if (idle >= window) {
        // The peripheral has provably drained, and a skipped cycle
        // changes nothing the interface reads: skip the rest.
        idle += cycles - i;
        return cycles - i;
      } else {
        ++idle;
      }
    }
    // A stepped cycle reads what the gateways present, if they changed.
    if (presented && inputs_written_) {
      inputs_written_ = false;
      mark_changed_inputs();
    }
    if (pending()) run();
    bool moved = false;
    if (ports != nullptr) {
      ports->wrote_last_cycle = false;
      for (std::size_t p = 0; p < ports->pops.size(); ++p) {
        if (s[ports->pops[p].bit] != 0 && ports->pop(ports->owner, p)) {
          moved = stale = true;
        }
      }
      for (std::size_t p = 0; p < ports->pushes.size(); ++p) {
        const Ports::Strobe& push = ports->pushes[p];
        if (s[push.bit] == 0) continue;
        // A refused push moves no word but still counts as traffic: the
        // master presents the word again on the next cycle.
        ports->wrote_last_cycle = moved = true;
        if (ports->push(ports->owner, p, s[push.data], s[push.control] != 0)) {
          stale = true;
        }
      }
    }
    if (!moved && !pending()) {
      // No word moved, so the FIFOs and the gateways are as they were,
      // and no region would run: every remaining cycle of the call
      // repeats this one. The quiescence window, if the interface is
      // idle, skips those past its end.
      const Cycle rest = cycles - i - 1;
      if (window == 0 || active) return 0;
      Cycle& idle = quiescence->idle_streak;
      const Cycle stepped = std::min(rest, window > idle ? window - idle : 0);
      idle += rest;
      return rest - stepped;
    }
  }
  return 0;
}

void Kernel::schedule(u32 region) noexcept {
  if (stamp_[region] == pass_) return;
  stamp_[region] = pass_;
  const RegionSegments& segments = regions_[region];
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
  PassState p{.s = arena_->data(),
              .mux_sources = mux_sources_.data(),
              .queues = queues_.data(),
              .stamp = stamp_.data(),
              .pass = pass_,
              .sources = sources_queue_.segments.data(),
              .source_count = sources_queue_.size,
              .outputs = outputs_queue_.segments.data(),
              .output_count = outputs_queue_.size,
              .bodies = bodies_queue_.segments.data(),
              .body_count = bodies_queue_.size,
              .next_outputs = next_outputs_.data(),
              .next_bodies = next_bodies_.data()};
  if (design_ != nullptr) {
    design_->pass(p);
  } else {
    interpret(p);
  }
  stats_.passes += 1;
  stats_.segments += p.segments;
  stats_.ops += p.ops;
  sources_queue_.size = 0;
  outputs_queue_.size = p.next_output_count;
  bodies_queue_.size = p.next_body_count;
  std::swap(outputs_queue_.segments, next_outputs_);
  std::swap(bodies_queue_.segments, next_bodies_);
  ++pass_;
}

void Kernel::interpret(PassState& pass) {
  // Threaded dispatch (it measured faster than a switch): each handler
  // jumps straight to the next op's handler, in OpCode order, and the
  // kEnd closing each segment picks the next segment to run.
  static constexpr void* kHandlers[] = {
      &&copy, &&wrap, &&cast, &&add, &&sub, &&mul, &&mul_clamp, &&neg,
      &&shr, &&shr_var, &&mux, &&compare, &&and_, &&or_, &&xor_, &&not_,
      &&reg, &&counter, &&ring_read, &&ring_push, &&rom, &&ram,
      &&serialize, &&output_state, &&propagate, &&latch, &&copy_fan,
      &&ring_read_fan, &&output_state_fan, &&wrap_ext, &&add_ext, &&sub_ext,
      &&mul_ext, &&neg_ext, &&and_ext, &&or_ext, &&xor_ext, &&not_ext,
      &&reg_ext, &&reg_always, &&compare_i64, &&end};
  static_assert(std::size(kHandlers) ==
                static_cast<std::size_t>(OpCode::kEnd) + 1);
  // Stage 0 runs the queued sources (they read nothing computed in the
  // cycle), stage 1 the queued phase-0 segments, stage 2 the queued
  // bodies. Fanout marks, made in stages 0 and 1, queue bodies only.
  const Op* const tape = tape_.data();
  i64* const s = pass.s;
  const u32* const fanout = fanout_.data();
  const RegionSegments* const regions = regions_.data();
  u64* const stamp = pass.stamp;
  u32* const bodies = pass.bodies;
  u32 queued = pass.body_count;
  u32 next_outputs = 0;
  u32 next_bodies = 0;
  u64 segments = 0;
  u64 ran = 0;  // ops, each segment's kEnd included
  bool changed = false;
  // Queue the bodies of the regions fanout[k, k2) for this pass, each
  // once.
  auto mark_fanout = [&](i64 k, i64 k2) {
    for (i64 j = k; j < k2; ++j) {
      const u32 target = fanout[j];
      if (stamp[target] != pass.pass) {
        stamp[target] = pass.pass;
        bodies[queued++] = regions[target].body;
      }
    }
  };
  // kCopyFan: copy `value` onto `dst`; mark fanout[k, k2) when it changed.
  auto copy_fan = [&](i64& dst, i64 value, i64 k, i64 k2) {
    if (dst != value) {
      dst = value;
      mark_fanout(k, k2);
    }
  };
  unsigned stage = 0;
  const u32* cursor = pass.sources;
  const u32* stop = cursor + pass.source_count;
  const Op* op = nullptr;
#define MBC_NEXT()                                  \
  do {                                              \
    ++op;                                           \
    goto* kHandlers[static_cast<u8>(op->code)];     \
  } while (0)
next_segment:
  while (cursor == stop) {
    if (stage == 2) goto done;
    if (++stage == 1) {
      cursor = pass.outputs;
      stop = cursor + pass.output_count;
    } else {
      cursor = bodies;
      stop = cursor + queued;
    }
  }
  op = tape + *cursor++;
  goto* kHandlers[static_cast<u8>(op->code)];
copy:
  s[op->dst] = s[op->a];
  MBC_NEXT();
wrap:
  s[op->dst] = op->wrap(s[op->a]);
  MBC_NEXT();
cast:
  s[op->dst] = casts_[op->ext](s[op->a]);
  MBC_NEXT();
add:
  s[op->dst] = op->wrap(shl(s[op->a], op->sa) + shl(s[op->b], op->sb));
  MBC_NEXT();
sub:
  s[op->dst] = op->wrap(shl(s[op->a], op->sa) - shl(s[op->b], op->sb));
  MBC_NEXT();
mul:
  s[op->dst] = op->wrap(s[op->a] * s[op->b]);
  MBC_NEXT();
mul_clamp: {
  const i128 product = i128(s[op->a]) * i128(s[op->b]);
  s[op->dst] = product < op->k    ? op->k
             : product > op->k2 ? op->k2
                                : static_cast<i64>(product);
  MBC_NEXT();
}
neg:
  s[op->dst] = op->wrap(-s[op->a]);
  MBC_NEXT();
shr:
  s[op->dst] = s[op->a] >> op->k;
  MBC_NEXT();
shr_var:
  s[op->dst] = ops::shr_var(s[op->a], s[op->b], op->k);
  MBC_NEXT();
mux:
  s[op->dst] = ops::mux(s, pass.mux_sources + op->ext, s[op->a], op->k);
  MBC_NEXT();
compare: {
  const i128 a = i128(s[op->a]) << op->sa;
  const i128 b = i128(s[op->b]) << op->sb;
  const int order = (a > b) - (a < b);
  s[op->dst] = (op->k >> (order + 1)) & 1;
  MBC_NEXT();
}
and_:
  s[op->dst] = op->wrap(s[op->a] & s[op->b]);
  MBC_NEXT();
or_:
  s[op->dst] = op->wrap(s[op->a] | s[op->b]);
  MBC_NEXT();
xor_:
  s[op->dst] = op->wrap(s[op->a] ^ s[op->b]);
  MBC_NEXT();
not_:
  s[op->dst] = op->wrap(~s[op->a]);
  MBC_NEXT();
reg:
  if (s[op->c] != 0) changed |= update(s[op->dst], op->wrap(s[op->a]));
  MBC_NEXT();
counter:
  changed |= ops::counter(s[op->dst], s[op->a], s[op->b], op->k);
  MBC_NEXT();
ring_read:
  s[op->dst] = s[op->ext + s[op->a]];
  MBC_NEXT();
ring_push:
  s[op->ext + s[op->dst]] = s[op->a];
  s[op->dst] = s[op->dst] + 1 == op->k ? 0 : s[op->dst] + 1;
  changed = true;
  MBC_NEXT();
rom:
  changed |= update(s[op->dst], s[op->ext + clamp_index(s[op->a], op->k)]);
  MBC_NEXT();
ram: {
  i64& cell = s[op->ext + clamp_index(s[op->a], op->k)];
  changed |= update(s[op->dst], cell);  // read-before-write
  if (s[op->c] != 0) changed |= update(cell, op->wrap(s[op->b]));
  MBC_NEXT();
}
serialize:
  changed |= ops::serialize(*pass.queues[op->ext], s, s[op->a], s[op->b]);
  MBC_NEXT();
output_state:
  blocks_[op->ext]->output_state();
  MBC_NEXT();
propagate:
  blocks_[op->ext]->propagate();
  MBC_NEXT();
latch:
  blocks_[op->ext]->latch();
  changed |= blocks_[op->ext]->latch_changed();
  MBC_NEXT();
copy_fan:
  copy_fan(s[op->dst], s[op->a], op->k, op->k2);
  MBC_NEXT();
ring_read_fan:
  copy_fan(s[op->dst], s[op->ext + s[op->a]], op->k, op->k2);
  MBC_NEXT();
output_state_fan:
  blocks_[op->ext]->output_state();
  mark_fanout(op->k, op->k2);
  MBC_NEXT();
wrap_ext:
  s[op->dst] = ops::wrap_ext(s[op->a], op->wrap.norm, op->wrap.keep);
  MBC_NEXT();
add_ext:
  s[op->dst] = ops::add_ext(s[op->a], s[op->b], op->wrap.norm, op->wrap.keep);
  MBC_NEXT();
sub_ext:
  s[op->dst] = ops::sub_ext(s[op->a], s[op->b], op->wrap.norm, op->wrap.keep);
  MBC_NEXT();
mul_ext:
  s[op->dst] = ops::mul_ext(s[op->a], s[op->b], op->wrap.norm, op->wrap.keep);
  MBC_NEXT();
neg_ext:
  s[op->dst] = op->wrap.extend(-s[op->a]);
  MBC_NEXT();
and_ext:
  s[op->dst] = ops::and_ext(s[op->a], s[op->b], op->wrap.norm, op->wrap.keep);
  MBC_NEXT();
or_ext:
  s[op->dst] = op->wrap.extend(s[op->a] | s[op->b]);
  MBC_NEXT();
xor_ext:
  s[op->dst] = op->wrap.extend(s[op->a] ^ s[op->b]);
  MBC_NEXT();
not_ext:
  s[op->dst] = ops::not_ext(s[op->a], op->wrap.norm, op->wrap.keep);
  MBC_NEXT();
reg_ext:
  changed |= ops::register_ext(s[op->dst], s[op->a], s[op->c], op->wrap.norm,
                                 op->wrap.keep);
  MBC_NEXT();
reg_always:
  changed |= update(s[op->dst], ops::wrap_ext(s[op->a], op->wrap.norm,
                                                op->wrap.keep));
  MBC_NEXT();
compare_i64:
  s[op->dst] = ops::compare_i64(s[op->a], s[op->b], op->k);
  MBC_NEXT();
end:
  ++segments;
  ran += static_cast<u64>(op->k2);
  if (changed) {
    // The region runs again next pass, phase-0 segment and all.
    const auto region = static_cast<u32>(op->k);
    stamp[region] = pass.pass + 1;
    if (regions[region].outputs != kNoSegment) {
      pass.next_outputs[next_outputs++] = regions[region].outputs;
    }
    pass.next_bodies[next_bodies++] = regions[region].body;
    changed = false;
  }
  goto next_segment;
#undef MBC_NEXT
done:
  pass.next_output_count = next_outputs;
  pass.next_body_count = next_bodies;
  pass.segments = segments;
  pass.ops = ran;
}

}  // namespace mbcosim::sysgen
