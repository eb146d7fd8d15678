// The shipped design points whose kernel passes the build compiles
// (DESIGN.md §15, "Compiled passes"): the CORDIC pipeline at every P that
// Fig. 5, Table I, the design-space sweeps and the farm use, and the
// matmul peripheral at every block size. The generator (codegen/) builds
// each of them, lowers its pass to C++ and writes the source that defines
// register_compiled_designs into the library (mbc_compiled). The design
// builders call it before they elaborate, so every model they build
// binds its compiled pass whichever path built it (MachineDesc,
// build_cordic_pipeline, build_matmul_peripheral, add_*), as long as the
// design starts a model of its own: its slots are the pass's literals.
#pragma once

#include <string>

namespace mbcosim::apps {

inline constexpr unsigned kCompiledCordicPes[] = {1, 2, 3, 4, 5,
                                                  6, 7, 8, 16};
inline constexpr unsigned kCompiledMatmulBlocks[] = {2, 3, 4};

/// Register the compiled designs with sysgen (sysgen/compiled.hpp).
/// Idempotent and thread-safe. The generated source defines it.
void register_compiled_designs();

/// The generated source: every design point above, built and lowered by
/// sysgen::PassEmitter (what mbc_gen_segments writes).
[[nodiscard]] std::string compiled_designs_source();

}  // namespace mbcosim::apps
