// The registry of compiled designs (DESIGN.md §15, "Compiled passes").
// A build-time generator lowers each shipped design whose ops all have a
// lowering to one C++ function that runs a whole kernel pass, with the
// design's slots, tables and schedule as literals; its output registers
// the designs here, each under its tape's fingerprint. Lowering::finish()
// looks the finished tape up and, on a match, Kernel::run calls the
// design's pass instead of the interpreter. A tape that matches no
// registered design runs on the interpreter.
#pragma once

#include <span>

#include "common/types.hpp"
#include "sysgen/kernel.hpp"

namespace mbcosim::sysgen {

/// A design's compiled pass, bound to every tape with its fingerprint and
/// length.
struct CompiledDesign {
  const char* name = "";
  Fingerprint fingerprint;
  u32 tape_size = 0;
  PassFn pass = nullptr;
};

/// Make `designs` available to every later elaboration. The storage must
/// outlive the process's models; registering a fingerprint again keeps
/// the first entry. Thread-safe.
void register_compiled(std::span<const CompiledDesign> designs);

/// The registered design for a tape with this fingerprint and length, or
/// null. Thread-safe.
[[nodiscard]] const CompiledDesign* find_compiled(
    const Fingerprint& fingerprint, std::size_t tape_size);

}  // namespace mbcosim::sysgen
