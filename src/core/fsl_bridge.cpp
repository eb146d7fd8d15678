#include "core/fsl_bridge.hpp"

#include <algorithm>
#include <string>

namespace mbcosim::core {

FslBridge::FslBridge(fsl::FslHub& hub) : hub_(hub) {
  ports_.owner = this;
  ports_.present = &FslBridge::present;
  ports_.pop = &FslBridge::pop;
  ports_.push = &FslBridge::push;
}

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
  if (port.has_slave()) {
    slaves_.push_back(port);
    ports_.pops.push_back({.bit = port.s_read->slot()});
  }
  if (port.has_master()) {
    masters_.push_back(port);
    ports_.pushes.push_back(
        {.bit = port.m_write->slot(),
         .data = port.m_data->slot(),
         .control = port.m_control != nullptr ? port.m_control->slot()
                                              : sysgen::Lowering::zero()});
  }
  return {};
}

bool FslBridge::present(void* owner) {
  const FslBridge& bridge = *static_cast<const FslBridge*>(owner);
  bool active = false;
  for (const FslPort& slave : bridge.slaves_) {
    const auto head = bridge.hub_.to_hw(slave.channel).peek();
    slave.s_exists->set_bool(head.has_value());
    slave.s_data->set_raw(head ? static_cast<i64>(head->data) : 0);
    if (slave.s_control != nullptr) {
      slave.s_control->set_bool(head ? head->control : false);
    }
    active |= head.has_value();
  }
  for (const FslPort& master : bridge.masters_) {
    // Output backpressure: the hardware may be holding words it could
    // not deliver; keep simulating until the FIFO drains.
    const bool full = bridge.hub_.from_hw(master.channel).full();
    if (master.m_full != nullptr) master.m_full->set_bool(full);
    active |= full;
  }
  return active;
}

bool FslBridge::pop(void* owner, std::size_t port) {
  FslBridge& bridge = *static_cast<FslBridge*>(owner);
  if (!bridge.hub_.to_hw(bridge.slaves_[port].channel).try_read()) {
    return false;
  }
  bridge.stats_.words_to_hw += 1;
  return true;
}

bool FslBridge::push(void* owner, std::size_t port, i64 data, bool control) {
  FslBridge& bridge = *static_cast<FslBridge*>(owner);
  const auto word = static_cast<Word>(static_cast<u64>(data) & 0xFFFFFFFFu);
  if (bridge.hub_.from_hw(bridge.masters_[port].channel)
          .try_write(word, control)) {
    bridge.stats_.words_from_hw += 1;
    return true;
  }
  bridge.stats_.refused_writes += 1;
  return false;
}

}  // namespace mbcosim::core
