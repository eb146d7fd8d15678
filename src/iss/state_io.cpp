// Checkpoint serialization for the ISS: processor architectural state
// and the LMB memory image. Layouts are fixed-width little-endian via
// ckpt::Writer/Reader; every count doubles as a shape check so a
// snapshot of a differently-configured core is refused, not misread.
#include "ckpt/ckpt.hpp"
#include "iss/memory.hpp"
#include "iss/processor.hpp"

namespace mbcosim::iss {

void Processor::save_state(ckpt::Writer& writer) const {
  writer.write_u32(static_cast<u32>(isa::kNumRegisters));
  for (const Word reg : regs_) writer.write_u32(reg);
  writer.write_u32(pc_);
  writer.write_u32(msr_);
  writer.write_bool(halted_);
  writer.write_bool(imm_prefix_.has_value());
  writer.write_u16(imm_prefix_.value_or(0));
  writer.write_bool(delay_target_.has_value());
  writer.write_u32(delay_target_.value_or(0));
  writer.write_u64(pending_wait_states_);
  writer.write_u64(stats_.instructions);
  writer.write_u64(stats_.cycles);
  writer.write_u64(stats_.fsl_stall_cycles);
  writer.write_u64(stats_.loads);
  writer.write_u64(stats_.stores);
  writer.write_u64(stats_.fsl_reads);
  writer.write_u64(stats_.fsl_writes);
  writer.write_u64(stats_.branches);
  writer.write_u64(stats_.branches_taken);
  writer.write_u64(stats_.multiplies);
  writer.write_u64(stats_.opb_accesses);
  writer.write_u64(stats_.opb_wait_cycles);
}

bool Processor::load_state(ckpt::Reader& reader) {
  if (reader.read_u32() != static_cast<u32>(isa::kNumRegisters)) return false;
  for (Word& reg : regs_) reg = reader.read_u32();
  pc_ = reader.read_u32();
  msr_ = reader.read_u32();
  halted_ = reader.read_bool();
  const bool has_imm = reader.read_bool();
  const u16 imm = reader.read_u16();
  imm_prefix_ = has_imm ? std::optional<u16>(imm) : std::nullopt;
  const bool has_delay = reader.read_bool();
  const Addr delay = reader.read_u32();
  delay_target_ = has_delay ? std::optional<Addr>(delay) : std::nullopt;
  pending_wait_states_ = reader.read_u64();
  stats_.instructions = reader.read_u64();
  stats_.cycles = reader.read_u64();
  stats_.fsl_stall_cycles = reader.read_u64();
  stats_.loads = reader.read_u64();
  stats_.stores = reader.read_u64();
  stats_.fsl_reads = reader.read_u64();
  stats_.fsl_writes = reader.read_u64();
  stats_.branches = reader.read_u64();
  stats_.branches_taken = reader.read_u64();
  stats_.multiplies = reader.read_u64();
  stats_.opb_accesses = reader.read_u64();
  stats_.opb_wait_cycles = reader.read_u64();
  // The predecode cache and every superblock mirror instruction memory,
  // which the owner restores after this call and then revalidates.
  return reader.ok();
}

void Processor::revalidate_text() noexcept {
  // Superblocks are stitched from live predecode entries, and anything
  // that retires an entry under a block retires the block too, so the
  // live entries cover every live block's text.
  for (std::size_t index = 0; index < predecode_words_; ++index) {
    const Predecoded& entry = predecode_[index];
    if (entry.gen == predecode_gen_ &&
        memory_.read_word(static_cast<Addr>(index << 2)) != entry.raw) {
      invalidate_predecode();
      return;
    }
  }
}

void LmbMemory::save_state(ckpt::Writer& writer) const {
  writer.write_u64(bytes_.size());
  writer.write_bytes(bytes_.data(), bytes_.size());
}

bool LmbMemory::load_state(ckpt::Reader& reader) {
  if (reader.read_u64() != bytes_.size()) return false;
  return reader.read_bytes(bytes_.data(), bytes_.size());
}

}  // namespace mbcosim::iss
