// Superblock translation tier (ExecTier::kDbt, DESIGN.md §12).
//
// Basic blocks whose head crosses the promotion threshold are stitched
// into token-threaded code: every instruction becomes one DbtOp whose
// `id` indexes a computed-goto label table, with all operand fields and
// both static latencies pre-extracted at translation time. A dispatch
// then executes the whole block — and, via block chaining at the
// terminators, any already-translated successor blocks — without
// touching the decoder, the predecode cache, or step().
//
// The accounting contract is absolute: CpuStats and architectural state
// after any number of block dispatches are bit-identical to the same
// instruction sequence run through step() at the precise tier. Everything
// that could diverge is shared (load_data/store_data, fsl_get/fsl_put) or
// checked per instruction (the cycle budget, so a quantum boundary lands
// on exactly the same instruction as the per-step path).
//
// An IMM prefix is stitched with the instruction it prefixes: it retires
// as an op of its own, and its high half is folded into that
// instruction's immediate at translation time, so the two always share a
// block. The prefix reaches imm_prefix_ only where the block is left
// between them (a budget exit after the prefix; a trap or an FSL stall
// of the prefixed instruction), exactly as step() would leave it.
//
// FSL accesses are stitched too. Their handler calls the FslSync hook
// with the block's running cycle count, so the hardware reaches the
// access's cycle first, then performs the access in place; a blocking
// access whose FIFO is not ready leaves the block at its own PC
// (DbtRun::kFslStall) and run_batch charges the stalled cycle.
#include <cstddef>

#include "common/bits.hpp"
#include "iss/processor.hpp"

namespace mbcosim::iss {

using isa::Instruction;
using isa::Op;

namespace {

/// Block-head executions before a basic block is translated: a head seen
/// twice is in a loop or a called routine. Short co-simulations spend
/// their warm-up on the precise path, and 2 measured faster than 4 and 8
/// on the design-space sweeps without slowing the long software runs;
/// code that runs once is never translated.
constexpr u16 kPromoteThreshold = 2;
/// Heat sentinel for heads whose leading instruction cannot be stitched
/// (disabled unit, illegal word): never try to translate again (a store
/// into the word resets the heat, so SMC re-earns translation).
constexpr u16 kNeverTranslate = 0xFFFF;
/// Text-page granularity: blocks never span a page boundary, bounding
/// how much text one block can cover.
constexpr Addr kPageBytes = 1024;
/// Body-length bound per superblock (terminator excluded).
constexpr std::size_t kMaxBlockOps = 64;

/// Handler selectors — indexes into the computed-goto label table in
/// Processor::exec_block. The order here and the label order there must
/// match exactly (a static_assert pins the count). Register/immediate
/// operand-b variants are adjacent so translation can do `base +
/// imm_form`; the six static conditional branches are laid out in
/// isa::Cond order for the same reason.
enum DbtHandler : u8 {
  kAddRR, kAddRI, kAddcRR, kAddcRI, kAddkRR, kAddkRI,
  kRsubRR, kRsubRI, kRsubcRR, kRsubcRI, kRsubkRR, kRsubkRI,
  kCmp, kCmpu,
  kMulRR, kMulRI, kIdiv, kIdivu,
  kBsllRR, kBsllRI, kBsraRR, kBsraRI, kBsrlRR, kBsrlRI,
  kOrRR, kOrRI, kAndRR, kAndRI, kXorRR, kXorRI, kAndnRR, kAndnRI,
  kSra, kSrl, kSrc, kSext8, kSext16,
  kMfsPc, kMfsMsr, kMts,
  kLbuRR, kLbuRI, kLhuRR, kLhuRI, kLwRR, kLwRI,
  kSbRR, kSbRI, kShRR, kShRI, kSwRR, kSwRI,
  kGet, kPut,  ///< FSL channel in imm, form in flags
  kImmPrefix,  ///< high half in imm; the next op has it folded in
  // Terminators: exactly one per block, always the last op.
  kTermFall,      ///< block ended without control flow; pc = resume addr
  kTermHalt,      ///< static branch-to-self (program end)
  kTermBrStatic,  ///< unconditional, target resolved at translation
  kTermBrDyn,     ///< unconditional register branch
  kTermBeq, kTermBne, kTermBlt, kTermBle, kTermBgt, kTermBge,
  kTermBccDyn,    ///< conditional register branch; cond in flags >> 4
  kTermRtsd,      ///< return (always delay slot)
  kHandlerCount,
};

/// DbtOp::flags bits of the terminators.
constexpr u8 kFlagLink = 1;
constexpr u8 kFlagDelay = 2;
constexpr u8 kFlagAbsolute = 4;
/// DbtOp::flags bits of kGet/kPut: the n* and c* forms.
constexpr u8 kFlagNonblocking = 1;
constexpr u8 kFlagControl = 2;

}  // namespace

Processor::DbtRun Processor::dbt_enter(Cycle max_cycles) {
  // run_batch fetched pc_, so the word tables cover it.
  const std::size_t word = pc_ >> 2;

  if (const u32 slot = dbt_index_[word]; slot != 0) {
    const Superblock& block = dbt_blocks_[slot - 1];
    // The start check guards against an unaligned jump landing inside
    // the 4-byte word that heads a (differently-aligned) block.
    if (block.gen == dbt_gen_ && block.start == pc_) {
      return exec_block(block, max_cycles);
    }
  }

  u16& heat = dbt_heat_[word];
  if (heat == kNeverTranslate) return DbtRun::kNoBlock;
  if (++heat < kPromoteThreshold) return DbtRun::kNoBlock;
  heat = 0;
  if (!translate_block(pc_)) {
    heat = kNeverTranslate;
    return DbtRun::kNoBlock;
  }
  return exec_block(dbt_blocks_[dbt_index_[word] - 1], max_cycles);
}

bool Processor::translate_block(Addr start) {
  const Addr page_end = (start & ~Addr{kPageBytes - 1}) + kPageBytes;
  std::vector<DbtOp> ops;
  u32 words = 0;
  Addr pc = start;
  bool terminated = false;
  // Whether the op just stitched is an IMM prefix, and its high half.
  bool prefixed = false;
  u32 prefix = 0;

  while (!terminated && ops.size() < kMaxBlockOps && pc < page_end &&
         memory_.contains(pc, 4)) {
    const Predecoded& entry = predecode_fetch(pc);
    // Custom-slot instructions need the precise path.
    if (entry.tag == DispatchTag::kSlow) break;
    const Instruction& in = entry.in;

    DbtOp op;
    op.pc = pc;
    // operand_b() of a type-B instruction, the IMM prefix folded in.
    op.imm = prefixed && in.imm_form
                 ? (prefix << 16) | (static_cast<u32>(in.imm) & 0xFFFFu)
                 : static_cast<u32>(in.imm);
    op.rd = in.rd;
    op.ra = in.ra;
    op.rb = in.rb;
    op.lat = static_cast<u8>(entry.lat_not_taken);
    op.lat_taken = static_cast<u8>(entry.lat_taken);
    const u8 ri = in.imm_form ? 1 : 0;
    bool supported = true;

    switch (in.op) {
      case Op::kAdd: op.id = static_cast<u8>(kAddRR + ri); break;
      case Op::kAddc: op.id = static_cast<u8>(kAddcRR + ri); break;
      case Op::kAddk: op.id = static_cast<u8>(kAddkRR + ri); break;
      case Op::kRsub: op.id = static_cast<u8>(kRsubRR + ri); break;
      case Op::kRsubc: op.id = static_cast<u8>(kRsubcRR + ri); break;
      case Op::kRsubk: op.id = static_cast<u8>(kRsubkRR + ri); break;
      // cmp/cmpu read both operands from registers in every form.
      case Op::kCmp: op.id = kCmp; break;
      case Op::kCmpu: op.id = kCmpu; break;
      case Op::kMul:
        // Disabled-unit instructions trap; end the block before them so
        // step() raises the architectural event.
        supported = config_.has_multiplier;
        op.id = static_cast<u8>(kMulRR + ri);
        break;
      case Op::kIdiv:
        supported = config_.has_divider;
        op.id = kIdiv;
        break;
      case Op::kIdivu:
        supported = config_.has_divider;
        op.id = kIdivu;
        break;
      case Op::kBsll:
        supported = config_.has_barrel_shifter;
        op.id = static_cast<u8>(kBsllRR + ri);
        break;
      case Op::kBsra:
        supported = config_.has_barrel_shifter;
        op.id = static_cast<u8>(kBsraRR + ri);
        break;
      case Op::kBsrl:
        supported = config_.has_barrel_shifter;
        op.id = static_cast<u8>(kBsrlRR + ri);
        break;
      case Op::kOr: op.id = static_cast<u8>(kOrRR + ri); break;
      case Op::kAnd: op.id = static_cast<u8>(kAndRR + ri); break;
      case Op::kXor: op.id = static_cast<u8>(kXorRR + ri); break;
      case Op::kAndn: op.id = static_cast<u8>(kAndnRR + ri); break;
      case Op::kSra: op.id = kSra; break;
      case Op::kSrl: op.id = kSrl; break;
      case Op::kSrc: op.id = kSrc; break;
      case Op::kSext8: op.id = kSext8; break;
      case Op::kSext16: op.id = kSext16; break;
      case Op::kMfs: op.id = in.imm == 0 ? kMfsPc : kMfsMsr; break;
      case Op::kMts: op.id = kMts; break;
      case Op::kLbu: op.id = static_cast<u8>(kLbuRR + ri); break;
      case Op::kLhu: op.id = static_cast<u8>(kLhuRR + ri); break;
      case Op::kLw: op.id = static_cast<u8>(kLwRR + ri); break;
      case Op::kSb: op.id = static_cast<u8>(kSbRR + ri); break;
      case Op::kSh: op.id = static_cast<u8>(kShRR + ri); break;
      case Op::kSw: op.id = static_cast<u8>(kSwRR + ri); break;
      case Op::kGet:
      case Op::kPut:
        // A link the core does not have traps; step() raises it.
        supported = fsl_hub_ != nullptr && in.fsl_id < config_.fsl_links;
        op.id = in.op == Op::kGet ? kGet : kPut;
        op.imm = in.fsl_id;
        op.flags = static_cast<u8>((in.fsl_nonblocking ? kFlagNonblocking : 0) |
                                   (in.fsl_control ? kFlagControl : 0));
        break;
      case Op::kImm:
        op.id = kImmPrefix;
        op.imm = static_cast<u32>(in.imm) & 0xFFFFu;
        break;
      case Op::kBr: {
        op.flags = static_cast<u8>((in.link ? kFlagLink : 0) |
                                   (in.delay_slot ? kFlagDelay : 0) |
                                   (in.absolute ? kFlagAbsolute : 0));
        if (in.imm_form) {
          const u32 disp = op.imm;
          const Addr target = in.absolute ? disp : pc + disp;
          if (target == pc && !in.link) {
            op.id = kTermHalt;
          } else {
            op.id = kTermBrStatic;
            op.imm = target;
          }
        } else {
          op.id = kTermBrDyn;
        }
        terminated = true;
        break;
      }
      case Op::kBcc: {
        if (in.imm_form) {
          op.id = static_cast<u8>(kTermBeq + static_cast<u8>(in.cond));
          op.imm = pc + op.imm;  // resolved target
          op.flags = in.delay_slot ? kFlagDelay : 0;
        } else {
          op.id = kTermBccDyn;
          op.flags = static_cast<u8>((in.delay_slot ? kFlagDelay : 0) |
                                     (static_cast<u8>(in.cond) << 4));
        }
        terminated = true;
        break;
      }
      case Op::kRtsd:
        op.id = kTermRtsd;
        op.imm = static_cast<u32>(in.imm);  // rtsd ignores an IMM prefix
        terminated = true;
        break;
      // kFast covers undecodable words too; they trap on the precise path.
      default:
        supported = false;
        break;
    }
    if (!supported) break;
    ops.push_back(op);
    words += 1;
    pc += 4;
    prefixed = in.op == Op::kImm;
    prefix = op.imm;
  }
  if (prefixed) {
    // The prefixed instruction did not make it into the block: leave the
    // prefix to step() as well, so the two never straddle a block end.
    ops.pop_back();
    words -= 1;
    pc -= 4;
  }

  if (ops.empty()) return false;
  if (!terminated) {
    // Page boundary / length bound / unsupported successor: fall back
    // into the batch loop at the resume address.
    DbtOp fall;
    fall.pc = pc;
    fall.id = kTermFall;
    ops.push_back(fall);
  }

  for (u32 i = 0; i < words; ++i) dbt_cover_[(start >> 2) + i] = dbt_gen_;

  // Slots are stable: a head that was translated before (then retired)
  // reuses its slot, so dbt_index_ entries stay valid across
  // generations and storage growth is bounded by distinct heads.
  u32 slot = dbt_index_[start >> 2];
  if (slot == 0) {
    dbt_blocks_.emplace_back();
    slot = static_cast<u32>(dbt_blocks_.size());
    dbt_index_[start >> 2] = slot;
  }
  Superblock& block = dbt_blocks_[slot - 1];
  block.ops = std::move(ops);
  block.start = start;
  block.words = words;
  block.gen = dbt_gen_;
  dbt_stats_.blocks_translated += 1;
  return true;
}

Processor::DbtRun Processor::exec_block(const Superblock& block,
                                        Cycle max_cycles) {
  // Token-threaded dispatch: the label table is indexed by DbtOp::id.
  // Order must match DbtHandler exactly.
  static const void* const kLabels[] = {
      &&lab_AddRR, &&lab_AddRI, &&lab_AddcRR, &&lab_AddcRI,
      &&lab_AddkRR, &&lab_AddkRI,
      &&lab_RsubRR, &&lab_RsubRI, &&lab_RsubcRR, &&lab_RsubcRI,
      &&lab_RsubkRR, &&lab_RsubkRI,
      &&lab_Cmp, &&lab_Cmpu,
      &&lab_MulRR, &&lab_MulRI, &&lab_Idiv, &&lab_Idivu,
      &&lab_BsllRR, &&lab_BsllRI, &&lab_BsraRR, &&lab_BsraRI,
      &&lab_BsrlRR, &&lab_BsrlRI,
      &&lab_OrRR, &&lab_OrRI, &&lab_AndRR, &&lab_AndRI,
      &&lab_XorRR, &&lab_XorRI, &&lab_AndnRR, &&lab_AndnRI,
      &&lab_Sra, &&lab_Srl, &&lab_Src, &&lab_Sext8, &&lab_Sext16,
      &&lab_MfsPc, &&lab_MfsMsr, &&lab_Mts,
      &&lab_LbuRR, &&lab_LbuRI, &&lab_LhuRR, &&lab_LhuRI,
      &&lab_LwRR, &&lab_LwRI,
      &&lab_SbRR, &&lab_SbRI, &&lab_ShRR, &&lab_ShRI,
      &&lab_SwRR, &&lab_SwRI,
      &&lab_Get, &&lab_Put, &&lab_ImmPrefix,
      &&lab_TermFall, &&lab_TermHalt, &&lab_TermBrStatic, &&lab_TermBrDyn,
      &&lab_TermBeq, &&lab_TermBne, &&lab_TermBlt, &&lab_TermBle,
      &&lab_TermBgt, &&lab_TermBge,
      &&lab_TermBccDyn, &&lab_TermRtsd,
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kHandlerCount);

  const Superblock* blk = &block;
  const DbtOp* ip = blk->ops.data();
  Word* const regs = regs_;
  // Hot counters live in locals for the duration of the dispatch and
  // are synced back at every exit (sync_out).
  Cycle cycles = stats_.cycles;
  u64 instrs = stats_.instructions;
  const u64 instrs_at_entry = instrs;
  u64 dispatches = 1;
  DbtRun result = DbtRun::kContinue;
  Addr target = 0;

// Advance to the next op of the block. The per-instruction budget check
// makes a quantum boundary land on exactly the same instruction as the
// per-step path — required for deterministic multi-core quanta.
#define MBC_NEXT()                          \
  do {                                      \
    ++ip;                                   \
    if (cycles >= max_cycles) goto budget_out; \
    goto* kLabels[ip->id];                  \
  } while (0)
#define MBC_RETIRE()   \
  do {                 \
    cycles += ip->lat; \
    ++instrs;          \
  } while (0)
#define MBC_WR(r, v)                    \
  do {                                  \
    if ((r) != 0) regs[(r)] = (v);      \
  } while (0)

  goto* kLabels[ip->id];

  // ---- Arithmetic (semantics mirror Processor::add_family). --------
#define MBC_ADDX(name, a_expr, opb_expr, cin_expr, keep_carry)       \
  lab_##name : {                                                     \
    const u64 sum = u64(a_expr) + u64(opb_expr) + u64(cin_expr);     \
    MBC_WR(ip->rd, static_cast<Word>(sum));                          \
    if (!(keep_carry)) set_carry((sum >> 32) != 0);                  \
    MBC_RETIRE();                                                    \
    MBC_NEXT();                                                      \
  }

  MBC_ADDX(AddRR, regs[ip->ra], regs[ip->rb], 0, false)
  MBC_ADDX(AddRI, regs[ip->ra], ip->imm, 0, false)
  MBC_ADDX(AddcRR, regs[ip->ra], regs[ip->rb], carry() ? 1 : 0, false)
  MBC_ADDX(AddcRI, regs[ip->ra], ip->imm, carry() ? 1 : 0, false)
  MBC_ADDX(AddkRR, regs[ip->ra], regs[ip->rb], 0, true)
  MBC_ADDX(AddkRI, regs[ip->ra], ip->imm, 0, true)
  MBC_ADDX(RsubRR, ~regs[ip->ra], regs[ip->rb], 1, false)
  MBC_ADDX(RsubRI, ~regs[ip->ra], ip->imm, 1, false)
  MBC_ADDX(RsubcRR, ~regs[ip->ra], regs[ip->rb], carry() ? 1 : 0, false)
  MBC_ADDX(RsubcRI, ~regs[ip->ra], ip->imm, carry() ? 1 : 0, false)
  MBC_ADDX(RsubkRR, ~regs[ip->ra], regs[ip->rb], 1, true)
  MBC_ADDX(RsubkRI, ~regs[ip->ra], ip->imm, 1, true)
#undef MBC_ADDX

lab_Cmp: {
  const u32 a = regs[ip->ra];
  const u32 b = regs[ip->rb];
  Word r = b - a;
  r = insert_bits(r, 31, 1,
                  static_cast<i32>(b) < static_cast<i32>(a) ? 1u : 0u);
  MBC_WR(ip->rd, r);
  MBC_RETIRE();
  MBC_NEXT();
}
lab_Cmpu: {
  const u32 a = regs[ip->ra];
  const u32 b = regs[ip->rb];
  Word r = b - a;
  r = insert_bits(r, 31, 1, b < a ? 1u : 0u);
  MBC_WR(ip->rd, r);
  MBC_RETIRE();
  MBC_NEXT();
}

#define MBC_MUL(name, opb_expr)                              \
  lab_##name : {                                             \
    const u64 product = u64(regs[ip->ra]) * u64(opb_expr);   \
    MBC_WR(ip->rd, static_cast<Word>(product));              \
    stats_.multiplies += 1;                                  \
    MBC_RETIRE();                                            \
    MBC_NEXT();                                              \
  }
  MBC_MUL(MulRR, regs[ip->rb])
  MBC_MUL(MulRI, ip->imm)
#undef MBC_MUL

lab_Idiv: {
  const u32 divisor = regs[ip->ra];
  const u32 dividend = regs[ip->rb];
  if (divisor == 0) {
    MBC_WR(ip->rd, 0);
  } else {
    MBC_WR(ip->rd, static_cast<Word>(static_cast<i32>(dividend) /
                                     static_cast<i32>(divisor)));
  }
  MBC_RETIRE();
  MBC_NEXT();
}
lab_Idivu: {
  const u32 divisor = regs[ip->ra];
  MBC_WR(ip->rd, divisor == 0 ? 0u : regs[ip->rb] / divisor);
  MBC_RETIRE();
  MBC_NEXT();
}

  // ---- Barrel shifts and logicals. ---------------------------------
#define MBC_BS(name, opb_expr, shift_expr)          \
  lab_##name : {                                    \
    const unsigned amount = (opb_expr)&31u;         \
    const u32 v = regs[ip->ra];                     \
    MBC_WR(ip->rd, (shift_expr));                   \
    MBC_RETIRE();                                   \
    MBC_NEXT();                                     \
  }
  MBC_BS(BsllRR, regs[ip->rb], v << amount)
  MBC_BS(BsllRI, ip->imm, v << amount)
  MBC_BS(BsraRR, regs[ip->rb],
         static_cast<u32>(static_cast<i32>(v) >> amount))
  MBC_BS(BsraRI, ip->imm, static_cast<u32>(static_cast<i32>(v) >> amount))
  MBC_BS(BsrlRR, regs[ip->rb], v >> amount)
  MBC_BS(BsrlRI, ip->imm, v >> amount)
#undef MBC_BS

#define MBC_LOGIC(name, expr)   \
  lab_##name : {                \
    MBC_WR(ip->rd, (expr));     \
    MBC_RETIRE();               \
    MBC_NEXT();                 \
  }
  MBC_LOGIC(OrRR, regs[ip->ra] | regs[ip->rb])
  MBC_LOGIC(OrRI, regs[ip->ra] | ip->imm)
  MBC_LOGIC(AndRR, regs[ip->ra] & regs[ip->rb])
  MBC_LOGIC(AndRI, regs[ip->ra] & ip->imm)
  MBC_LOGIC(XorRR, regs[ip->ra] ^ regs[ip->rb])
  MBC_LOGIC(XorRI, regs[ip->ra] ^ ip->imm)
  MBC_LOGIC(AndnRR, regs[ip->ra] & ~regs[ip->rb])
  MBC_LOGIC(AndnRI, regs[ip->ra] & ~ip->imm)
#undef MBC_LOGIC

lab_Sra: {
  const u32 v = regs[ip->ra];
  MBC_WR(ip->rd, static_cast<u32>(static_cast<i32>(v) >> 1));
  set_carry((v & 1u) != 0);
  MBC_RETIRE();
  MBC_NEXT();
}
lab_Srl: {
  const u32 v = regs[ip->ra];
  MBC_WR(ip->rd, v >> 1);
  set_carry((v & 1u) != 0);
  MBC_RETIRE();
  MBC_NEXT();
}
lab_Src: {
  const u32 v = regs[ip->ra];
  MBC_WR(ip->rd, (v >> 1) | (carry() ? 0x80000000u : 0u));
  set_carry((v & 1u) != 0);
  MBC_RETIRE();
  MBC_NEXT();
}
lab_Sext8:
  MBC_WR(ip->rd, sign_extend(regs[ip->ra], 8));
  MBC_RETIRE();
  MBC_NEXT();
lab_Sext16:
  MBC_WR(ip->rd, sign_extend(regs[ip->ra], 16));
  MBC_RETIRE();
  MBC_NEXT();

  // ---- Special registers. pc_ is stale inside a block, so mfs-from-pc
  // uses the op's own translated address.
lab_MfsPc:
  MBC_WR(ip->rd, ip->pc);
  MBC_RETIRE();
  MBC_NEXT();
lab_MfsMsr:
  MBC_WR(ip->rd, msr_);
  MBC_RETIRE();
  MBC_NEXT();
lab_Mts:
  msr_ = regs[ip->ra];
  MBC_RETIRE();
  MBC_NEXT();

  // ---- Memory. The whole data path (LMB/OPB decode, wait states,
  // error traps, SMC invalidation) is the shared load_data/store_data,
  // so tiers cannot diverge on memory semantics.
#define MBC_LOAD(name, opb_expr, nbytes)                            \
  lab_##name : {                                                    \
    const Addr a = regs[ip->ra] + (opb_expr);                       \
    Word v = 0;                                                     \
    if (load_data(a, nbytes, v) == Event::kIllegal) goto illegal_out; \
    MBC_WR(ip->rd, v);                                              \
    Cycle c = ip->lat;                                              \
    if (pending_wait_states_ != 0) {                                \
      c += pending_wait_states_;                                    \
      pending_wait_states_ = 0;                                     \
    }                                                               \
    cycles += c;                                                    \
    ++instrs;                                                       \
    MBC_NEXT();                                                     \
  }
  MBC_LOAD(LbuRR, regs[ip->rb], 1)
  MBC_LOAD(LbuRI, ip->imm, 1)
  MBC_LOAD(LhuRR, regs[ip->rb], 2)
  MBC_LOAD(LhuRI, ip->imm, 2)
  MBC_LOAD(LwRR, regs[ip->rb], 4)
  MBC_LOAD(LwRI, ip->imm, 4)
#undef MBC_LOAD

  // A store that lands on translated text bumps dbt_gen_ (inside
  // store_data → invalidate_predecode), retiring every block including
  // the one being executed: the store may have rewritten a *later*
  // instruction of this very block, so exit to the batch loop at the
  // next instruction instead of running stale tokens.
#define MBC_STORE(name, opb_expr, nbytes)                           \
  lab_##name : {                                                    \
    const Addr a = regs[ip->ra] + (opb_expr);                       \
    if (store_data(a, nbytes, regs[ip->rd]) == Event::kIllegal) {   \
      goto illegal_out;                                             \
    }                                                               \
    Cycle c = ip->lat;                                              \
    if (pending_wait_states_ != 0) {                                \
      c += pending_wait_states_;                                    \
      pending_wait_states_ = 0;                                     \
    }                                                               \
    cycles += c;                                                    \
    ++instrs;                                                       \
    if (blk->gen != dbt_gen_) {                                     \
      pc_ = ip->pc + 4;                                             \
      goto sync_out;                                                \
    }                                                               \
    MBC_NEXT();                                                     \
  }
  MBC_STORE(SbRR, regs[ip->rb], 1)
  MBC_STORE(SbRI, ip->imm, 1)
  MBC_STORE(ShRR, regs[ip->rb], 2)
  MBC_STORE(ShRI, ip->imm, 2)
  MBC_STORE(SwRR, regs[ip->rb], 4)
  MBC_STORE(SwRI, ip->imm, 4)
#undef MBC_STORE

  // ---- FSL. The hardware first catches up with the cycle this access
  // starts on; the access body is the shared fsl_get/fsl_put. A stall
  // leaves the block with the access unexecuted and its cycle uncharged.
#define MBC_FSL(name, access)                                        \
  lab_##name : {                                                     \
    sync_fsl(cycles);                                                \
    if ((access) == Event::kFslStall) {                              \
      pc_ = ip->pc;                                                  \
      result = DbtRun::kFslStall;                                    \
      goto unfinished_out;                                           \
    }                                                                \
    MBC_RETIRE();                                                    \
    MBC_NEXT();                                                      \
  }
  MBC_FSL(Get, fsl_get(ip->rd, ip->imm, (ip->flags & kFlagNonblocking) != 0,
                       (ip->flags & kFlagControl) != 0))
  MBC_FSL(Put, fsl_put(regs[ip->ra], ip->imm,
                       (ip->flags & kFlagNonblocking) != 0,
                       (ip->flags & kFlagControl) != 0))
#undef MBC_FSL

lab_ImmPrefix:
  MBC_RETIRE();
  ++ip;  // the prefixed op: translation never ends a block on a prefix
  if (cycles >= max_cycles) {
    // The quantum ends between the two: step() runs the prefixed op.
    imm_prefix_ = static_cast<u16>(ip[-1].imm);
    pc_ = ip->pc;
    block_head_ = false;
    goto sync_out;
  }
  goto* kLabels[ip->id];

  // ---- Terminators. ------------------------------------------------
lab_TermFall:
  pc_ = ip->pc;  // resume address, precomputed at translation
  goto chain;

lab_TermHalt:
  stats_.branches += 1;
  stats_.branches_taken += 1;
  cycles += ip->lat_taken;
  ++instrs;
  halted_ = true;
  pc_ = ip->pc;
  result = DbtRun::kHalted;
  goto sync_out;

lab_TermBrStatic:
  stats_.branches += 1;
  stats_.branches_taken += 1;
  if (ip->flags & kFlagLink) MBC_WR(ip->rd, ip->pc);
  cycles += ip->lat_taken;
  ++instrs;
  target = ip->imm;
  goto branch_go;

lab_TermBrDyn: {
  stats_.branches += 1;
  stats_.branches_taken += 1;
  const u32 disp = regs[ip->rb];
  target = (ip->flags & kFlagAbsolute) ? disp : ip->pc + disp;
  if (ip->flags & kFlagLink) {
    MBC_WR(ip->rd, ip->pc);
  } else if (target == ip->pc) {
    // Dynamic branch-to-self: program end, like the static form.
    cycles += ip->lat_taken;
    ++instrs;
    halted_ = true;
    pc_ = ip->pc;
    result = DbtRun::kHalted;
    goto sync_out;
  }
  cycles += ip->lat_taken;
  ++instrs;
  goto branch_go;
}

#define MBC_BCC(name, cond_expr)                  \
  lab_##name : {                                  \
    stats_.branches += 1;                         \
    const i32 v = static_cast<i32>(regs[ip->ra]); \
    if (cond_expr) {                              \
      stats_.branches_taken += 1;                 \
      cycles += ip->lat_taken;                    \
      ++instrs;                                   \
      target = ip->imm;                           \
      goto branch_go;                             \
    }                                             \
    cycles += ip->lat;                            \
    ++instrs;                                     \
    pc_ = ip->pc + 4;                             \
    goto chain;                                   \
  }
  MBC_BCC(TermBeq, v == 0)
  MBC_BCC(TermBne, v != 0)
  MBC_BCC(TermBlt, v < 0)
  MBC_BCC(TermBle, v <= 0)
  MBC_BCC(TermBgt, v > 0)
  MBC_BCC(TermBge, v >= 0)
#undef MBC_BCC

lab_TermBccDyn: {
  stats_.branches += 1;
  const i32 v = static_cast<i32>(regs[ip->ra]);
  bool taken = false;
  switch (static_cast<isa::Cond>(ip->flags >> 4)) {
    case isa::Cond::kEq: taken = v == 0; break;
    case isa::Cond::kNe: taken = v != 0; break;
    case isa::Cond::kLt: taken = v < 0; break;
    case isa::Cond::kLe: taken = v <= 0; break;
    case isa::Cond::kGt: taken = v > 0; break;
    case isa::Cond::kGe: taken = v >= 0; break;
  }
  if (taken) {
    stats_.branches_taken += 1;
    cycles += ip->lat_taken;
    ++instrs;
    target = ip->pc + regs[ip->rb];
    goto branch_go;
  }
  cycles += ip->lat;
  ++instrs;
  pc_ = ip->pc + 4;
  goto chain;
}

lab_TermRtsd:
  stats_.branches += 1;
  stats_.branches_taken += 1;
  cycles += ip->lat_taken;
  ++instrs;
  delay_target_ = regs[ip->ra] + ip->imm;
  pc_ = ip->pc + 4;
  goto sync_out;  // the batch loop runs the delay slot precisely

branch_go:
  // Taken branch with a resolved target. A delay-slot form hands the
  // slot instruction back to the batch loop's precise path (exactly the
  // step() accounting); a plain form chains straight into the target.
  if (ip->flags & kFlagDelay) {
    delay_target_ = target;
    pc_ = ip->pc + 4;
    goto sync_out;
  }
  pc_ = target;
  goto chain;

chain:
  // Block chaining: if the successor is already translated, dispatch
  // into it without surfacing to the batch loop. The budget check here
  // plays the role of the loop's `stats_.cycles < max_cycles` guard.
  if (cycles < max_cycles) {
    const std::size_t word = pc_ >> 2;
    if (word < dbt_index_.size()) {
      if (const u32 slot = dbt_index_[word]; slot != 0) {
        const Superblock& next = dbt_blocks_[slot - 1];
        if (next.gen == dbt_gen_ && next.start == pc_) {
          blk = &next;
          ip = blk->ops.data();
          ++dispatches;
          goto* kLabels[ip->id];
        }
      }
    }
  }
  goto sync_out;

budget_out:
  // ip already points at the next (unexecuted) op; for the kTermFall
  // pseudo-op its pc field is the fall-through address, for every other
  // op it is the op's own guest address — either way the resume pc. Only
  // the fall-through address is a block exit: the next run_batch call
  // resumes anywhere else as a non-head, as if the block had gone on.
  pc_ = ip->pc;
  block_head_ = ip->id == kTermFall;
  goto sync_out;

illegal_out:
  // Mirrors step(): the trap occupies one cycle, retires
  // nothing, and preempts any queued OPB wait states.
  halted_ = true;
  pending_wait_states_ = 0;
  cycles += 1;
  pc_ = ip->pc;
  result = DbtRun::kIllegal;
  goto unfinished_out;

unfinished_out:
  // The op at ip did not complete, so, as after step(), an IMM prefix
  // before it is still pending.
  if (ip != blk->ops.data() && ip[-1].id == kImmPrefix) {
    imm_prefix_ = static_cast<u16>(ip[-1].imm);
  }
  goto sync_out;

sync_out:
  stats_.cycles = cycles;
  stats_.instructions = instrs;
  dbt_stats_.dbt_instructions += instrs - instrs_at_entry;
  dbt_stats_.block_dispatches += dispatches;
  if (metrics_ != nullptr) count_block(instrs - instrs_at_entry, result);
  return result;

#undef MBC_NEXT
#undef MBC_RETIRE
#undef MBC_WR
}

}  // namespace mbcosim::iss
