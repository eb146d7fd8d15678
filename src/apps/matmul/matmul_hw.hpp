// Hardware side of the block matrix multiplication application (paper
// Figure 6): a customized peripheral that multiplies an n x n block of
// matrix B (pre-loaded through FSL control words) by rows of matrix-A
// blocks streamed in as data words, producing one row of the block
// product per n input words.
//
// Dataflow per the paper: "when data is available in the FSL FIFO and
// Out#_control is high, the hardware peripheral puts the input data into
// the corresponding registers. Thus, when the data elements of matrix
// blocks from A come in as normal data words, the multiplication and
// accumulation are performed accordingly."
//
// The streamed element a_k (k-th element of a row of the A block)
// multiplies row k of the stored B block on n parallel MULT18x18
// multipliers; n accumulators build the row of C = A_row x B. After the
// n-th element the accumulated row is handed to the output serializer.
#pragma once

#include <memory>

#include "core/fsl_bridge.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::apps::matmul {

struct MatmulPeripheral {
  std::unique_ptr<sysgen::Model> model;
  core::FslPort io;  ///< FSL-facing gateways, on channel 0
  unsigned block_size = 0;  ///< n (paper evaluates n = 2 and n = 4)
};

/// Build the n x n block multiplier (n in [2, 4]).
[[nodiscard]] MatmulPeripheral build_matmul_peripheral(unsigned block_size);

/// Add the same blocks to `model`, which is not elaborated yet, so that
/// other blocks can sit beside them; returns the FSL-facing gateways as a
/// port on channel 0.
[[nodiscard]] core::FslPort add_matmul_peripheral(
    sysgen::Model& model, unsigned block_size);

}  // namespace mbcosim::apps::matmul
