// FslBridge: the communication-interface half of the "MicroBlaze Simulink
// block" (paper Section III-A/III-B). Each simulated clock cycle it
// presents the FSL FIFO state to the hardware model through Gateway In
// blocks, and samples the hardware's handshake outputs:
//
//   processor -> hardware ("slave" side, the HW is the FSL slave):
//     FSL_S_Data / FSL_S_Control / FSL_S_Exists  driven into the model,
//     FSL_S_Read sampled from the model; a high Read pops the FIFO.
//   hardware -> processor ("master" side, the HW is the FSL master):
//     FSL_M_Full driven into the model,
//     FSL_M_Data / FSL_M_Control / FSL_M_Write sampled; a high Write
//     pushes into the FIFO. A push against a full FIFO is refused (and
//     counted): a correct master observes FSL_M_Full and re-presents the
//     word, so no data is lost -- the paper instead sizes the data sets
//     so results "would not overflow the FIFOs" (Section IV-A).
#pragma once

#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "fsl/fsl_hub.hpp"
#include "sysgen/blocks_basic.hpp"

namespace mbcosim::core {

/// Processor-to-hardware channel binding (hardware reads).
struct SlaveBinding {
  unsigned channel = 0;
  sysgen::GatewayIn* data = nullptr;     ///< FSL_S_Data (required)
  sysgen::GatewayIn* control = nullptr;  ///< FSL_S_Control (optional)
  sysgen::GatewayIn* exists = nullptr;   ///< FSL_S_Exists (required)
  sysgen::GatewayOut* read = nullptr;    ///< FSL_S_Read ack (required)
};

/// Hardware-to-processor channel binding (hardware writes).
struct MasterBinding {
  unsigned channel = 0;
  sysgen::GatewayOut* data = nullptr;    ///< FSL_M_Data (required)
  sysgen::GatewayOut* control = nullptr; ///< FSL_M_Control (optional)
  sysgen::GatewayOut* write = nullptr;   ///< FSL_M_Write (required)
  sysgen::GatewayIn* full = nullptr;     ///< FSL_M_Full (optional)
};

struct BridgeStats {
  u64 words_to_hw = 0;    ///< FIFO pops consumed by the hardware
  u64 words_from_hw = 0;  ///< FIFO pushes produced by the hardware
  u64 refused_writes = 0; ///< pushes refused because the FIFO was full
};

class FslBridge {
 public:
  explicit FslBridge(fsl::FslHub& hub) : hub_(hub) {}

  void bind_slave(const SlaveBinding& binding);
  void bind_master(const MasterBinding& binding);

  /// Drive the model's FSL-facing inputs from the FIFO state. Call
  /// immediately before Model::step().
  void pre_cycle();

  /// Sample the model's FSL-facing outputs and update the FIFOs. Call
  /// immediately after Model::step(). Returns whether a word moved: a
  /// pop, a push or a refused push. A cycle that moves none leaves the
  /// FIFOs, and with them the next pre_cycle()'s inputs, as they were.
  bool post_cycle();

  /// True when the FSL interface demands hardware simulation this cycle:
  /// pending input words, output backpressure, or output traffic on the
  /// previous stepped cycle. Used by the engine's quiescence skip (the
  /// paper's "simulation of these hardware designs is carried out
  /// whenever there is data coming from the processor").
  [[nodiscard]] bool interface_active() const;

  [[nodiscard]] const BridgeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] fsl::FslHub& hub() noexcept { return hub_; }

  /// Checkpoint the traffic counters and the quiescence write-tracking
  /// flag (bindings are structural; the hub is serialized by its owner).
  void save_state(ckpt::Writer& writer) const {
    writer.write_u64(stats_.words_to_hw);
    writer.write_u64(stats_.words_from_hw);
    writer.write_u64(stats_.refused_writes);
    writer.write_bool(wrote_last_cycle_);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) {
    stats_.words_to_hw = reader.read_u64();
    stats_.words_from_hw = reader.read_u64();
    stats_.refused_writes = reader.read_u64();
    wrote_last_cycle_ = reader.read_bool();
    return reader.ok();
  }

 private:
  fsl::FslHub& hub_;
  std::vector<SlaveBinding> slaves_;
  std::vector<MasterBinding> masters_;
  BridgeStats stats_;
  bool wrote_last_cycle_ = false;
};

}  // namespace mbcosim::core
