// The generator of compiled passes (DESIGN.md §15, "Compiled passes").
// PassEmitter turns the elaborated kernels of fixed designs into one C++
// source file: one function per design that runs a whole kernel pass,
// the designs' table and a registration function. The build runs it on
// the shipped designs (src/apps/codegen) and links the output into the
// library, where Lowering::finish() binds every tape whose fingerprint
// matches.
//
// A generated pass walks the queues Kernel::run hands it (PassState) in
// the interpreter's order and dispatches each queued segment with a
// switch on its tape offset, the segment's ops inline in its case. Every
// slot an op names is a literal (s[123]), and so are the formats,
// shifts, masks, k and k2 constants, mux-list offsets, serializer-queue
// indices, the regions and body offsets a fanout mark queues and, in a
// segment with state ops, the region a change queues for the next pass.
// A value written earlier in the segment is read from a local. The
// arithmetic is the interpreter's, from sysgen/ops.hpp. A pass is tied
// to one arena layout, which the fingerprint covers.
#pragma once

#include <string>
#include <string_view>

#include "sysgen/kernel.hpp"

namespace mbcosim::sysgen {

class PassEmitter {
 public:
  /// Lower the pass of `kernel` (elaborated) as the design `name`, an
  /// identifier. A kernel holding an op code without a lowering
  /// (DESIGN.md §15 lists the codes) is left out whole and runs on the
  /// interpreter.
  void add(std::string_view name, const Kernel& kernel);

  /// The source file: the passes, the designs' table, and the definition
  /// of `function`, a qualified name that `header` declares as
  /// `void function()`, which registers the designs once.
  [[nodiscard]] std::string source(std::string_view header,
                                   std::string_view function) const;

 private:
  std::string passes_;
  std::string designs_;
};

}  // namespace mbcosim::sysgen
