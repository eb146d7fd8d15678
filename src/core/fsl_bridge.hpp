// FslBridge: the communication-interface half of the "MicroBlaze Simulink
// block" (paper Section III-A/III-B). It presents the FSL FIFO state to
// the hardware model through Gateway In blocks, and the model's handshake
// outputs move words through the FIFOs:
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
// The bridge lives in the sysgen tape (DESIGN.md §15): it owns the
// sysgen::Ports record that Model::tick hands to the kernel, whose port
// ops sample the Read and Write slots after every stepped cycle and call
// back into the bridge only when one is high. The kernel asks the bridge
// to present the FIFOs only when they may have changed: at the start of a
// tick, and after a pop or a taken push, at the top of the next cycle.
// Even then the bridge rewrites only the gateways of the ports whose FIFO
// moved since it last presented them (fsl::FslChannel::changes()): a
// tick that follows one processor access refreshes one port, not all.
// reset() and load_state() forget what was presented, because the
// model's reset or restore rewrites the gateways behind the bridge.
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
  explicit FslBridge(fsl::FslHub& hub);
  // The ports record points back at the bridge.
  FslBridge(const FslBridge&) = delete;
  FslBridge& operator=(const FslBridge&) = delete;

  /// Validate `port` and wire its sides onto the FIFOs of its channel.
  /// Fails, leaving the bridge as it was, when the channel is out of
  /// range or already bound, when the port binds no gateway, or when a
  /// side it binds lacks a required gateway.
  [[nodiscard]] Status bind(const FslPort& port);

  /// The record the kernel's port ops call into (Model::tick).
  [[nodiscard]] sysgen::Ports& ports() noexcept { return ports_; }

  [[nodiscard]] const BridgeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] fsl::FslHub& hub() noexcept { return hub_; }

  /// Forget the traffic counters, the write tracking and what was
  /// presented, as at build.
  void reset() noexcept {
    stats_ = BridgeStats{};
    ports_.wrote_last_cycle = false;
    forget_presented();
  }

  /// Checkpoint the traffic counters and the quiescence write-tracking
  /// flag (ports are structural; the hub is serialized by its owner).
  void save_state(ckpt::Writer& writer) const {
    writer.write_u64(stats_.words_to_hw);
    writer.write_u64(stats_.words_from_hw);
    writer.write_u64(stats_.refused_writes);
    writer.write_bool(ports_.wrote_last_cycle);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) {
    stats_.words_to_hw = reader.read_u64();
    stats_.words_from_hw = reader.read_u64();
    stats_.refused_writes = reader.read_u64();
    ports_.wrote_last_cycle = reader.read_bool();
    forget_presented();
    return reader.ok();
  }

 private:
  /// One side of a bound port: its FIFO and what present() last wrote
  /// from it.
  struct Side {
    FslPort port;
    fsl::FslChannel* fifo = nullptr;
    /// fifo->changes() when the gateways were last written from it;
    /// kUnpresented until the first present() after a bind or a forget.
    u64 presented = kUnpresented;
    /// Slave: a word exists. Master: the FIFO is full. As presented.
    bool busy = false;
  };
  static constexpr u64 kUnpresented = ~u64{0};

  void forget_presented() noexcept {
    for (Side& side : slaves_) side.presented = kUnpresented;
    for (Side& side : masters_) side.presented = kUnpresented;
  }

  // The sysgen::Ports calls; `owner` is the bridge.
  static bool present(void* owner);
  static bool pop(void* owner, std::size_t port);
  static bool push(void* owner, std::size_t port, i64 data, bool control);

  fsl::FslHub& hub_;
  std::vector<Side> slaves_;   ///< ports with a slave side, bind order
  std::vector<Side> masters_;  ///< ports with a master side, bind order
  BridgeStats stats_;
  sysgen::Ports ports_;
};

}  // namespace mbcosim::core
