// The compiled sysgen kernel (DESIGN.md §15). Model::elaborate() lowers
// the block graph once into a flat tape of ops over raw i64 slots — each
// signal's value, each block's state — and Kernel::run_cycles runs it
// (through Model::tick, step() and run()). Formats are checked once,
// while lowering; every op carries the shifts, masks and bounds its
// conversion needs, precomputed, so a stepped cycle does no virtual
// dispatch, builds no Fix and validates no format.
//
// Ops point into storage that never moves after elaboration: the model's
// signal deque, blocks held by unique_ptr (whose state buffers are sized
// at construction) and the kernel's own temps, cast specs and tables.
//
// Activity-driven passes (DESIGN.md §15, "Activity-driven passes").
// Lowering::finish() partitions the ops into regions: an op that reads a
// value computed within the cycle — a phase-1 result or a latch-phase
// temp — shares its writer's region, and all ops of one block share a
// region. The phase-0 ops (functions of their block's state), the
// source ops (copies of a constant) and the gateway inputs do not unite
// with their readers; they mark the readers' regions pending, through a
// fanout list, when they change their slot. A region's ops sit on the
// tape as two segments, each ending in kEnd: its phase-0 ops, and its
// body, the phase-1 ops then the phase-2 ops in the cycle-based order
// (see block.hpp). A pass runs the pending sources, then the phase-0
// segments, then the bodies of the pending regions. A region is pending
// when its state changed on the last pass (only the latch-phase state
// ops write slots that live from one cycle to the next: kRegister,
// kCounter, kRingPush, kRom, kRam, kSerialize and the kLatch fallback),
// or when an input it reads changed this cycle (a fanout mark, or a
// gateway whose new value the kernel copied onto its signal). A region
// that is not pending would compute exactly what its slots already hold.
// After Lowering::finish() and invalidate() every region is pending, and
// the pass runs every op.
//
// The bridge in the tape (DESIGN.md §15, "The engine's jump").
// Kernel::run_cycles(n) runs n clock cycles in one call: the passes, the
// FSL port ops after each cycle, the elision of cycles that repeat the
// last one and the quiescence skip. The port ops sample the FSL_S_Read
// and FSL_M_Write slots on every stepped cycle and call out through a
// plain callback on a Ports record, which core::FslBridge owns, only
// when a handshake bit is high; sysgen knows no FIFO.
//
// Specialised ops (DESIGN.md §15, "Specialised ops"). Blocks emit the
// generic op codes; Lowering::finish() then gives each op on the tape the
// cheapest code that computes the same bits from its constants: a
// kCompare with no aligning shifts compares plain i64 values, an op whose
// Wrap only sign- or zero-extends (Wrap::extends()) runs a shift pair and
// the mask, and a kRegister whose enable is Lowering::one() loads no
// enable. The generic handlers stay for the ops whose constants need them.
#pragma once

#include <cstddef>
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

  /// True when the wrap moves no bit: it only keeps the word and sign- or
  /// zero-extends it, and extend() computes the same bits.
  [[nodiscard]] bool extends() const noexcept {
    return right == 0 && left == 0;
  }
  /// operator() for a wrap that extends().
  [[nodiscard]] i64 extend(i64 code) const noexcept {
    return (static_cast<i64>(static_cast<u64>(code) << norm) >> norm) & keep;
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
  kSerialize,    ///< if queue nonempty and !b: pop; if a: push every
                 ///< value; a change when either happened
  kOutputState,  ///< block->output_state()
  kPropagate,    ///< block->propagate()
  kLatch,        ///< block->latch(); a change unless
                 ///< block->latch_changed() says otherwise
  // Set by Lowering::finish() on ops with readers in other regions; they
  // mark the regions fanout[k, k2) pending. Blocks never emit them.
  kCopyFan,          ///< kCopy; marks when dst changes
  kRingReadFan,      ///< kRingRead; marks when dst changes
  kOutputStateFan,   ///< kOutputState; always marks
  // Set by Lowering::finish() on ops whose constants allow a cheaper
  // form (see the file comment). Blocks never emit them. The *Ext codes
  // are their generic op with a wrap that extends().
  kWrapExt,
  kAddExt,           ///< kAdd with sa == sb == 0
  kSubExt,           ///< kSub with sa == sb == 0
  kMulExt,
  kNegExt,
  kAndExt,
  kOrExt,
  kXorExt,
  kNotExt,
  kRegisterExt,
  kRegisterAlways,   ///< kRegisterExt whose enable is Lowering::one()
  kCompareI64,       ///< kCompare with sa == sb == 0
  kEnd,          ///< end of a segment
};

/// The queue of a lowered serializer (kSerialize): words captured in
/// parallel and emitted one per cycle. Its backlog is unbounded; ops
/// reach it through a pointer to this record, which never moves.
struct SerialQueue {
  std::vector<const i64*> values;  ///< captured in order when a is high
  std::deque<i64> words;
  i64 front = 0;  ///< words.front(), or 0 when empty
  i64 busy = 0;   ///< 1 while a word waits

  /// Recompute front and busy from words (after a reset or a restore).
  void refresh() noexcept {
    front = words.empty() ? 0 : words.front();
    busy = words.empty() ? 0 : 1;
  }
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
    SerialQueue* queue;         ///< kSerialize
    Block* block;               ///< kOutputState, kPropagate, kLatch
  } ext{};
};

/// The world outside a model as its port ops see it. Its owner (the FSL
/// bridge) fills it in and hands it to Kernel::run_cycles; the kernel
/// reads the strobe slots after every stepped cycle and calls out only
/// when one is high.
struct Ports {
  /// A handshake bit the model drives: FSL_S_Read for a pop, FSL_M_Write
  /// with its data and control slots for a push.
  struct Strobe {
    const i64* bit = nullptr;
    const i64* data = nullptr;
    const i64* control = nullptr;
  };
  std::vector<Strobe> pops;    ///< index = the owner's slave port
  std::vector<Strobe> pushes;  ///< index = the owner's master port
  void* owner = nullptr;
  /// Write every gateway slot the owner drives from the FIFO state;
  /// true when the interface has work (a word to read, or a full FIFO).
  bool (*present)(void* owner) = nullptr;
  /// Pop the FIFO of slave port `port`; true when a word left it.
  bool (*pop)(void* owner, std::size_t port) = nullptr;
  /// Offer a word to the FIFO of master port `port`; true when taken.
  bool (*push)(void* owner, std::size_t port, i64 data, bool control) =
      nullptr;
  /// A push was offered on the last stepped cycle, taken or refused.
  bool wrote_last_cycle = false;
};

/// The quiescence skip of run_cycles (CoSimEngine::set_quiescence_window):
/// once the interface has been idle for `window` consecutive cycles, the
/// following idle cycles are not evaluated at all.
struct Quiescence {
  Cycle window = 0;  ///< 0 steps every cycle
  Cycle idle_streak = 0;
};

/// What the kernel has run since elaboration: passes, the segments they
/// dispatched and the ops in those segments, each segment's closing kEnd
/// included. Host-side counters, not model state.
struct KernelStats {
  u64 passes = 0;
  u64 segments = 0;
  u64 ops = 0;
};

/// The lowered model: the op tape, its regions and the storage it points
/// into.
class Kernel {
 public:
  /// Advance `cycles` clock cycles and return how many of them the
  /// quiescence window skipped (neither evaluated nor counted by the
  /// model's clock). Each stepped cycle runs a pass over the pending
  /// regions, if any, then the port ops. Once a stepped cycle moves no
  /// FIFO word and leaves no region pending, every remaining cycle
  /// repeats it, and the rest of the call costs O(1).
  ///
  /// The gateway inputs are read only where they can change: on the
  /// first stepped cycle of the call (the environment writes them
  /// between calls) and after `ports->present`, which runs at the start
  /// of the call and at the top of the cycle after a pop or a taken
  /// push; and then only if a GatewayIn took a new value since they
  /// were last read (note_input_written). `ports` and `quiescence` are
  /// both null (a model alone) or both set (the FSL bridge's tick).
  /// Only a kernel from Lowering::finish() runs.
  Cycle run_cycles(Cycle cycles, Ports* ports, Quiescence* quiescence);

  /// True when a cycle would do nothing: no region is pending and every
  /// registered input still equals the output it drives.
  [[nodiscard]] bool settled() const noexcept {
    return !pending() && (!inputs_written_ || inputs_unchanged());
  }

  /// Make every region pending, so that the next run() is a full pass;
  /// for state written from outside the tape (reset, checkpoint restore).
  void invalidate() noexcept {
    full_ = true;
    inputs_written_ = true;
  }

  /// A registered input slot took a new value (the GatewayIn setters):
  /// the next stepped cycle compares the inputs again.
  void note_input_written() noexcept { inputs_written_ = true; }

  [[nodiscard]] std::size_t region_count() const noexcept {
    return regions_.size();
  }
  [[nodiscard]] const KernelStats& stats() const noexcept { return stats_; }
  /// Ops on the tape with op code `code` (the closing kEnds included).
  [[nodiscard]] std::size_t count(OpCode code) const noexcept;

 private:
  friend class Lowering;

  static constexpr u32 kNoSegment = ~u32{0};
  /// Where a region's ops start on the tape: its phase-0 ops, and its
  /// phase-1 ops followed by its phase-2 ops (its body).
  struct Region {
    u32 outputs = kNoSegment;
    u32 body = kNoSegment;
  };
  /// Segments to run in one pass: tape offsets, each at most once.
  struct Queue {
    std::vector<u32> segments;
    u32 size = 0;
    void push(u32 segment) noexcept { segments[size++] = segment; }
  };

  /// One pass: run the queued segments, then leave pending the regions
  /// whose state changed.
  void run();
  /// A region is queued for the next pass.
  [[nodiscard]] bool pending() const noexcept {
    return full_ || sources_queue_.size != 0 || bodies_queue_.size != 0;
  }
  [[nodiscard]] bool inputs_unchanged() const noexcept;
  /// Copy every input that differs from its output onto it, and queue
  /// the output's readers.
  void mark_changed_inputs() noexcept;
  /// Queue every segment of a region for this pass, once.
  void schedule(u32 region) noexcept;

  std::vector<Op> tape_;
  std::vector<Region> regions_;
  u32 sources_ = 0;  ///< regions [0, sources_) are single source ops
  std::vector<u32> fanout_;  ///< region lists the fan ops and inputs index
  std::vector<const i64*> inputs_;
  std::vector<i64*> input_outputs_;  ///< the signal each input drives
  /// Input i marks the regions fanout_[input_fanout_[i], [i + 1]).
  std::vector<u32> input_fanout_;
  // Scheduling state, sized once. A region is pending for the pass its
  // stamp names. A pass runs the queued sources, then the queued phase-0
  // segments, then the queued bodies; a body whose state ops changed a
  // slot queues its region for the next pass.
  std::vector<u64> stamp_;
  u64 pass_ = 1;
  Queue sources_queue_;
  Queue outputs_queue_;
  Queue bodies_queue_;
  Queue next_outputs_;
  Queue next_bodies_;
  bool full_ = true;
  /// An input may differ from its output: set by note_input_written()
  /// and invalidate(), cleared once a stepped cycle copied the inputs.
  bool inputs_written_ = true;
  KernelStats stats_;
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
  /// Lower one block (Block::lower): the ops it emits belong to it.
  void lower(Block& block);

  void emit(Phase phase, const Op& op) {
    ops_.push_back(op);
    phases_.push_back(phase);
    owners_.push_back(blocks_);
  }

  /// Emit `op`, whose exact result has `shift` fewer fraction bits than
  /// `to`, converted into `to` and stored at op.dst. Truncate-and-wrap
  /// conversions fuse into op.wrap; others run as a kCast after it.
  void emit_converted(Phase phase, Op op, FixFormat to, int shift,
                      Quantization quantization, Overflow overflow);

  /// Register a gateway: `slot` is written by the environment between
  /// cycles (a GatewayIn's pending value) and drives the signal slot
  /// `output`, which no op writes. The kernel copies a changed slot onto
  /// its output and marks the output's readers pending directly, on the
  /// first stepped cycle of each run_cycles call and after each
  /// Ports::present; no pass compares it again.
  void input(const i64* slot, i64* output) {
    kernel_.inputs_.push_back(slot);
    kernel_.input_outputs_.push_back(output);
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

  /// The finished kernel: the ops partitioned into regions, every region
  /// pending.
  [[nodiscard]] Kernel finish() &&;

 private:
  Kernel kernel_;
  // One entry per emitted op, in emission order.
  std::vector<Op> ops_;
  std::vector<Phase> phases_;
  std::vector<u32> owners_;  ///< ordinal of the block that emitted it
  u32 blocks_ = 0;           ///< blocks lowered so far
};

}  // namespace mbcosim::sysgen
