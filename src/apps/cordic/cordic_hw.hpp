// Hardware side of the CORDIC division application: a linear pipeline of
// P processing elements described with sysgen blocks (paper Figure 4),
// fronted by an FSL slave interface that deserializes the (X, Y, Z) word
// triples the software streams down a single FSL channel, and followed by
// a serializer that streams result triples back (Section IV-A: "only one
// FSL is used for sending the data from MicroBlaze to the customized
// hardware peripheral").
//
// The initial shift amount s0 (the paper's C_0, which the software
// derives from the pass number) arrives as a control word; each PE
// increments the shift amount in flight, which is the paper's
// "C_i = C_{i-1} * 2^-1 ... obtained by right shifting C_{i-1} from the
// previous PE" recast as s_i = s_{i-1} + 1.
#pragma once

#include <memory>

#include "core/fsl_bridge.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::apps::cordic {

/// Handles to the FSL-facing gateways of the pipeline model.
struct CordicPipelineIo {
  sysgen::GatewayIn* s_data = nullptr;
  sysgen::GatewayIn* s_exists = nullptr;
  sysgen::GatewayIn* s_control = nullptr;
  sysgen::GatewayOut* s_read = nullptr;
  sysgen::GatewayOut* m_data = nullptr;
  sysgen::GatewayOut* m_write = nullptr;
  sysgen::GatewayIn* m_full = nullptr;
};

struct CordicPipeline {
  std::unique_ptr<sysgen::Model> model;
  CordicPipelineIo io;
  unsigned num_pes = 0;

  /// Bind the pipeline onto FSL channel `channel` of a bridge.
  void bind(core::FslBridge& bridge, unsigned channel = 0) const;
};

/// Build the pipeline with `num_pes` processing elements (paper's P).
[[nodiscard]] CordicPipeline build_cordic_pipeline(unsigned num_pes);

/// Add the same blocks to `model`, which is not elaborated yet, so that
/// other blocks can sit beside them; returns the FSL-facing gateways.
[[nodiscard]] CordicPipelineIo add_cordic_pipeline(sysgen::Model& model,
                                                   unsigned num_pes);

}  // namespace mbcosim::apps::cordic
