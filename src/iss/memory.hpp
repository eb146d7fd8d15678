// LMB BRAM memory model. The paper's configuration stores both the
// instructions and the data of the software program in on-chip BRAMs
// reached through two LMB interface controllers with a guaranteed
// one-cycle access latency (Section III-A); the latency itself is charged
// by the instruction timing model (isa::base_latency), so this class only
// models state.
#pragma once

#include <vector>

#include "asm/program.hpp"
#include "common/types.hpp"

namespace mbcosim::ckpt {
class Writer;
class Reader;
}  // namespace mbcosim::ckpt

namespace mbcosim::iss {

class LmbMemory {
 public:
  /// Default size: 64 KiB, i.e. 32 BRAM blocks — ample for the paper's
  /// applications.
  explicit LmbMemory(u32 size_bytes = 64 * 1024);

  [[nodiscard]] u32 size_bytes() const noexcept {
    return static_cast<u32>(bytes_.size());
  }

  /// True when [addr, addr + bytes) lies inside the memory.
  [[nodiscard]] bool contains(Addr addr, u32 bytes) const noexcept {
    return addr <= bytes_.size() && bytes <= bytes_.size() - addr;
  }

  // Aligned accessors. Unaligned word/halfword addresses are truncated to
  // alignment, matching LMB behaviour (the low address bits select byte
  // lanes, they do not shift the access). The word accessors are inline:
  // every fetch and most data accesses go through them.
  [[nodiscard]] Word read_word(Addr addr) const {
    addr &= ~Addr{3};
    check(addr, 4);
    // Little-endian host layout; endianness is invisible to the programs
    // because word accesses dominate and the assembler emits whole words.
    return Word(bytes_[addr]) | Word(bytes_[addr + 1]) << 8 |
           Word(bytes_[addr + 2]) << 16 | Word(bytes_[addr + 3]) << 24;
  }
  [[nodiscard]] u16 read_half(Addr addr) const;
  [[nodiscard]] u8 read_byte(Addr addr) const;
  void write_word(Addr addr, Word value) {
    addr &= ~Addr{3};
    check(addr, 4);
    bytes_[addr] = static_cast<u8>(value);
    bytes_[addr + 1] = static_cast<u8>(value >> 8);
    bytes_[addr + 2] = static_cast<u8>(value >> 16);
    bytes_[addr + 3] = static_cast<u8>(value >> 24);
  }
  void write_half(Addr addr, u16 value);
  void write_byte(Addr addr, u8 value);

  /// Copy an assembled image into memory at its origin.
  void load_program(const assembler::Program& program);

  void fill(u8 value);

  /// Checkpoint the full byte image. load_state refuses (returns false)
  /// when the snapshot was taken from a memory of a different size.
  void save_state(ckpt::Writer& writer) const;
  [[nodiscard]] bool load_state(ckpt::Reader& reader);

 private:
  void check(Addr addr, u32 bytes) const {
    if (!contains(addr, bytes)) [[unlikely]] out_of_range(addr);
  }
  /// Throws SimError for an access at `addr` outside the memory.
  [[noreturn]] void out_of_range(Addr addr) const;
  std::vector<u8> bytes_;
};

}  // namespace mbcosim::iss
