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

struct CordicPipeline {
  std::unique_ptr<sysgen::Model> model;
  core::FslPort io;  ///< FSL-facing gateways, on channel 0
  unsigned num_pes = 0;
};

/// Build the pipeline with `num_pes` processing elements (paper's P).
[[nodiscard]] CordicPipeline build_cordic_pipeline(unsigned num_pes);

/// Add the same blocks to `model`, which is not elaborated yet, so that
/// other blocks can sit beside them; returns the FSL-facing gateways as a
/// port on channel 0.
[[nodiscard]] core::FslPort add_cordic_pipeline(
    sysgen::Model& model, unsigned num_pes);

}  // namespace mbcosim::apps::cordic
