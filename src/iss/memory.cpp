#include "iss/memory.hpp"

#include <algorithm>
#include <string>

#include "common/status.hpp"

namespace mbcosim::iss {

LmbMemory::LmbMemory(u32 size_bytes) : bytes_(size_bytes, 0) {
  if (size_bytes == 0 || (size_bytes % 4) != 0) {
    throw SimError("LmbMemory: size must be a nonzero multiple of 4");
  }
}

void LmbMemory::out_of_range(Addr addr) const {
  throw SimError("LmbMemory: access at 0x" + std::to_string(addr) +
                 " outside " + std::to_string(bytes_.size()) + " bytes");
}

u16 LmbMemory::read_half(Addr addr) const {
  addr &= ~Addr{1};
  check(addr, 2);
  return static_cast<u16>(u16(bytes_[addr]) | u16(bytes_[addr + 1]) << 8);
}

u8 LmbMemory::read_byte(Addr addr) const {
  check(addr, 1);
  return bytes_[addr];
}

void LmbMemory::write_half(Addr addr, u16 value) {
  addr &= ~Addr{1};
  check(addr, 2);
  bytes_[addr] = static_cast<u8>(value);
  bytes_[addr + 1] = static_cast<u8>(value >> 8);
}

void LmbMemory::write_byte(Addr addr, u8 value) {
  check(addr, 1);
  bytes_[addr] = value;
}

void LmbMemory::load_program(const assembler::Program& program) {
  check(program.origin, program.size_bytes());
  Addr addr = program.origin;
  for (const Word word : program.words) {
    write_word(addr, word);
    addr += 4;
  }
}

void LmbMemory::fill(u8 value) {
  std::fill(bytes_.begin(), bytes_.end(), value);
}

}  // namespace mbcosim::iss
