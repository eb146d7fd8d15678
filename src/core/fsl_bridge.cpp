#include "core/fsl_bridge.hpp"

#include <tuple>

namespace mbcosim::core {

void FslBridge::bind_slave(const SlaveBinding& binding) {
  if (binding.data == nullptr || binding.exists == nullptr ||
      binding.read == nullptr) {
    throw SimError("FslBridge: slave binding needs data, exists and read");
  }
  std::ignore = hub_.to_hw(binding.channel);  // range check
  slaves_.push_back(binding);
}

void FslBridge::bind_master(const MasterBinding& binding) {
  if (binding.data == nullptr || binding.write == nullptr) {
    throw SimError("FslBridge: master binding needs data and write");
  }
  std::ignore = hub_.from_hw(binding.channel);  // range check
  masters_.push_back(binding);
}

void FslBridge::pre_cycle() {
  for (const SlaveBinding& slave : slaves_) {
    const auto& channel = hub_.to_hw(slave.channel);
    const auto head = channel.peek();
    slave.exists->set_bool(head.has_value());
    slave.data->set_raw(head ? static_cast<i64>(head->data) : 0);
    if (slave.control != nullptr) {
      slave.control->set_bool(head ? head->control : false);
    }
  }
  for (const MasterBinding& master : masters_) {
    if (master.full != nullptr) {
      master.full->set_bool(hub_.from_hw(master.channel).full());
    }
  }
}

bool FslBridge::interface_active() const {
  if (wrote_last_cycle_) return true;
  for (const SlaveBinding& slave : slaves_) {
    if (hub_.to_hw(slave.channel).exists()) return true;
  }
  for (const MasterBinding& master : masters_) {
    // Output backpressure: the hardware may be holding words it could
    // not deliver; keep simulating until the FIFO drains.
    if (hub_.from_hw(master.channel).full()) return true;
  }
  return false;
}

bool FslBridge::post_cycle() {
  wrote_last_cycle_ = false;
  bool moved = false;
  for (const SlaveBinding& slave : slaves_) {
    if (slave.read->read_bool()) {
      auto& channel = hub_.to_hw(slave.channel);
      if (channel.try_read().has_value()) {
        stats_.words_to_hw += 1;
        moved = true;
      }
    }
  }
  for (const MasterBinding& master : masters_) {
    if (master.write->read_bool()) {
      auto& channel = hub_.from_hw(master.channel);
      const auto data = static_cast<Word>(
          static_cast<u64>(master.data->read_raw()) & 0xFFFFFFFFu);
      const bool control =
          master.control != nullptr && master.control->read_bool();
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
