#include "core/fsl_bridge.hpp"

#include <algorithm>
#include <string>

namespace mbcosim::core {

Status FslBridge::bind(const FslPort& port) {
  const std::string channel = std::to_string(port.channel);
  if (port.channel >= fsl::FslHub::kChannels) {
    return Status::failure("FSL channel " + channel +
                           " is out of range (0.." +
                           std::to_string(fsl::FslHub::kChannels - 1) + ")");
  }
  const auto on_channel = [&port](const FslPort& bound) {
    return bound.channel == port.channel;
  };
  if (std::any_of(slaves_.begin(), slaves_.end(), on_channel) ||
      std::any_of(masters_.begin(), masters_.end(), on_channel)) {
    return Status::failure("FSL channel " + channel + " is bound twice");
  }
  if (!port.has_slave() && !port.has_master()) {
    return Status::failure("FSL channel " + channel + " binds no gateways");
  }
  if (port.has_slave() && (port.s_data == nullptr ||
                           port.s_exists == nullptr ||
                           port.s_read == nullptr)) {
    return Status::failure("the slave side of FSL channel " + channel +
                           " needs the s_data, s_exists and s_read gateways");
  }
  if (port.has_master() &&
      (port.m_data == nullptr || port.m_write == nullptr)) {
    return Status::failure("the master side of FSL channel " + channel +
                           " needs the m_data and m_write gateways");
  }
  if (port.has_slave()) slaves_.push_back(port);
  if (port.has_master()) masters_.push_back(port);
  return {};
}

void FslBridge::pre_cycle() {
  for (const FslPort& slave : slaves_) {
    const auto& channel = hub_.to_hw(slave.channel);
    const auto head = channel.peek();
    slave.s_exists->set_bool(head.has_value());
    slave.s_data->set_raw(head ? static_cast<i64>(head->data) : 0);
    if (slave.s_control != nullptr) {
      slave.s_control->set_bool(head ? head->control : false);
    }
  }
  for (const FslPort& master : masters_) {
    if (master.m_full != nullptr) {
      master.m_full->set_bool(hub_.from_hw(master.channel).full());
    }
  }
}

bool FslBridge::interface_active() const {
  if (wrote_last_cycle_) return true;
  for (const FslPort& slave : slaves_) {
    if (hub_.to_hw(slave.channel).exists()) return true;
  }
  for (const FslPort& master : masters_) {
    // Output backpressure: the hardware may be holding words it could
    // not deliver; keep simulating until the FIFO drains.
    if (hub_.from_hw(master.channel).full()) return true;
  }
  return false;
}

bool FslBridge::post_cycle() {
  wrote_last_cycle_ = false;
  bool moved = false;
  for (const FslPort& slave : slaves_) {
    if (slave.s_read->read_bool()) {
      auto& channel = hub_.to_hw(slave.channel);
      if (channel.try_read().has_value()) {
        stats_.words_to_hw += 1;
        moved = true;
      }
    }
  }
  for (const FslPort& master : masters_) {
    if (master.m_write->read_bool()) {
      auto& channel = hub_.from_hw(master.channel);
      const auto data = static_cast<Word>(
          static_cast<u64>(master.m_data->read_raw()) & 0xFFFFFFFFu);
      const bool control =
          master.m_control != nullptr && master.m_control->read_bool();
      if (channel.try_write(data, control)) {
        stats_.words_from_hw += 1;
        wrote_last_cycle_ = true;
      } else {
        stats_.refused_writes += 1;
        wrote_last_cycle_ = true;  // the master is still presenting words
      }
    }
  }
  return moved || wrote_last_cycle_;
}

}  // namespace mbcosim::core
