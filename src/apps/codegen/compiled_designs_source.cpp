#include <string>

#include "apps/compiled_designs.hpp"
#include "apps/cordic/cordic_hw.hpp"
#include "apps/matmul/matmul_hw.hpp"
#include "sysgen/codegen.hpp"

namespace mbcosim::apps {

std::string compiled_designs_source() {
  sysgen::PassEmitter emitter;
  for (const unsigned pes : kCompiledCordicPes) {
    const auto pipeline = cordic::build_cordic_pipeline(pes);
    emitter.add("cordic_p" + std::to_string(pes), pipeline.model->kernel());
  }
  for (const unsigned block : kCompiledMatmulBlocks) {
    const auto peripheral = matmul::build_matmul_peripheral(block);
    emitter.add("matmul_n" + std::to_string(block),
                peripheral.model->kernel());
  }
  return emitter.source("apps/compiled_designs.hpp",
                        "mbcosim::apps::register_compiled_designs");
}

}  // namespace mbcosim::apps
