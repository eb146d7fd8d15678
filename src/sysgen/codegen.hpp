// The generator of compiled segments (DESIGN.md §15, "Compiled
// segments"). SegmentEmitter turns the elaborated kernels of fixed
// designs into one C++ source file: one function per segment whose ops
// all have a lowering, the designs' tables and a registration function.
// The build runs it on the shipped designs (src/apps/codegen) and links
// the output into the library, where Lowering::finish() binds every tape
// whose fingerprint matches.
//
// A generated function reads its operands from the arena base the pass
// carries, at the slots the segment's own op records name (s[t[i].a]),
// so one function serves every instance of a design, and writes every
// result to its slot; the formats, shifts, masks, k and k2 constants and
// fanout ranges are literals, and a value written earlier in the segment
// is read from a local. The arithmetic is the
// interpreter's, from sysgen/ops.hpp. Identical bodies are emitted once.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "sysgen/kernel.hpp"

namespace mbcosim::sysgen {

class SegmentEmitter {
 public:
  /// Lower the segments of `kernel` (elaborated) as the design `name`.
  /// A segment holding an op code without a lowering (DESIGN.md §15
  /// lists the codes) is left out and stays interpreted.
  void add(std::string_view name, const Kernel& kernel);

  /// The source file: the functions, the designs' tables, and the
  /// definition of `function`, a qualified name that `header` declares
  /// as `void function()`, which registers the designs once.
  [[nodiscard]] std::string source(std::string_view header,
                                   std::string_view function) const;

 private:
  /// The name of the function running `body`, emitting it when new.
  std::string function_for(const std::string& body);

  std::string functions_;
  std::map<std::string, std::string> names_;  ///< body -> function
  std::string tables_;
  std::string designs_;
  std::size_t design_count_ = 0;
};

}  // namespace mbcosim::sysgen
