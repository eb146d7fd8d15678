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
//
// A peripheral describes its interface on one channel as one FslPort,
// from the app that builds the model through the PeripheralRegistry to
// this bridge; FslBridge::bind is the only place a port is validated.
#pragma once

#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "fsl/fsl_hub.hpp"
#include "sysgen/blocks_basic.hpp"

namespace mbcosim::core {

/// The FSL-facing gateways of one hardware peripheral on one channel:
/// the slave side (processor -> hardware, the hardware reads) and/or the
/// master side (hardware -> processor, the hardware writes). Unused
/// pointers stay null, so a port may bind only one direction. A port
/// with any slave gateway needs s_data, s_exists and s_read; one with any
/// master gateway needs m_data and m_write.
struct FslPort {
  unsigned channel = 0;
  sysgen::GatewayIn* s_data = nullptr;     ///< FSL_S_Data
  sysgen::GatewayIn* s_exists = nullptr;   ///< FSL_S_Exists
  sysgen::GatewayIn* s_control = nullptr;  ///< FSL_S_Control (optional)
  sysgen::GatewayOut* s_read = nullptr;    ///< FSL_S_Read ack
  sysgen::GatewayOut* m_data = nullptr;    ///< FSL_M_Data
  sysgen::GatewayOut* m_control = nullptr; ///< FSL_M_Control (optional)
  sysgen::GatewayOut* m_write = nullptr;   ///< FSL_M_Write
  sysgen::GatewayIn* m_full = nullptr;     ///< FSL_M_Full (optional)

  [[nodiscard]] bool has_slave() const noexcept {
    return s_data != nullptr || s_exists != nullptr || s_control != nullptr ||
           s_read != nullptr;
  }
  [[nodiscard]] bool has_master() const noexcept {
    return m_data != nullptr || m_control != nullptr || m_write != nullptr ||
           m_full != nullptr;
  }
};

struct BridgeStats {
  u64 words_to_hw = 0;    ///< FIFO pops consumed by the hardware
  u64 words_from_hw = 0;  ///< FIFO pushes produced by the hardware
  u64 refused_writes = 0; ///< pushes refused because the FIFO was full
};

class FslBridge {
 public:
  explicit FslBridge(fsl::FslHub& hub) : hub_(hub) {}

  /// Validate `port` and wire its sides onto the FIFOs of its channel.
  /// Fails, leaving the bridge as it was, when the channel is out of
  /// range or already bound, when the port binds no gateway, or when a
  /// side it binds lacks a required gateway.
  [[nodiscard]] Status bind(const FslPort& port);

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
  /// flag (ports are structural; the hub is serialized by its owner).
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
  std::vector<FslPort> slaves_;   ///< ports with a slave side, bind order
  std::vector<FslPort> masters_;  ///< ports with a master side, bind order
  BridgeStats stats_;
  bool wrote_last_cycle_ = false;
};

}  // namespace mbcosim::core
