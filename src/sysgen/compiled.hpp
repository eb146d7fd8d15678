// The registry of compiled designs (DESIGN.md §15, "Compiled segments").
// A build-time generator lowers every segment of a shipped design whose
// ops all have a lowering to one C++ function; its output registers the
// designs here, each under its tape's fingerprint. Lowering::finish()
// looks the finished tape up and, on a match, Kernel::run dispatches the
// compiled segments instead of interpreting their ops. A tape that
// matches no registered design runs on the interpreter.
#pragma once

#include <span>

#include "common/types.hpp"
#include "sysgen/kernel.hpp"

namespace mbcosim::sysgen {

/// One compiled segment: the tape offset of its first op and its body.
struct CompiledSegment {
  u32 offset = 0;
  SegmentFn run = nullptr;
};

/// A design's compiled segments, bound to every tape with its
/// fingerprint and length.
struct CompiledDesign {
  const char* name = "";
  Fingerprint fingerprint;
  u32 tape_size = 0;
  std::span<const CompiledSegment> segments;
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
