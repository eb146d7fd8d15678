#include "bus/opb_bus.hpp"

#include <algorithm>

namespace mbcosim::bus {

void OpbBus::map(std::string name, Addr base, u32 size,
                 std::unique_ptr<OpbPeripheral> peripheral) {
  if (peripheral == nullptr) {
    throw SimError("OpbBus: null peripheral '" + name + "'");
  }
  if ((base % 4) != 0 || (size % 4) != 0 || size == 0) {
    throw SimError("OpbBus: region '" + name +
                   "' must be word-aligned and nonempty");
  }
  for (const Region& region : regions_) {
    const bool overlap = base < region.base + region.size &&
                         region.base < base + size;
    if (overlap) {
      throw SimError("OpbBus: region '" + name + "' overlaps '" +
                     region.name + "'");
    }
  }
  regions_.push_back(Region{std::move(name), base, size,
                            std::move(peripheral)});
}

bool OpbBus::decodes(Addr addr) const noexcept {
  return find(addr) != nullptr;
}

OpbBus::Region* OpbBus::find(Addr addr) noexcept {
  for (Region& region : regions_) {
    if (addr >= region.base && addr - region.base < region.size) {
      return &region;
    }
  }
  return nullptr;
}

const OpbBus::Region* OpbBus::find(Addr addr) const noexcept {
  for (const Region& region : regions_) {
    if (addr >= region.base && addr - region.base < region.size) {
      return &region;
    }
  }
  return nullptr;
}

void OpbBus::emit(obs::EventKind kind, Addr addr, Cycle wait_states) const {
  obs::TraceEvent event;
  event.kind = kind;
  event.cycle = trace_bus_->time();
  event.addr = addr;
  event.wait_states = wait_states;
  trace_bus_->emit(event);
}

OpbFaultControls::Mode OpbBus::consume_fault() noexcept {
  if (fault_ == nullptr || fault_->fired ||
      fault_->mode == OpbFaultControls::Mode::kNone) {
    return OpbFaultControls::Mode::kNone;
  }
  if (fault_->countdown > 0) {
    --fault_->countdown;
    return OpbFaultControls::Mode::kNone;
  }
  fault_->fired = true;
  return fault_->mode;
}

BusResponse OpbBus::read(Addr addr) {
  Region* region = find(addr);
  if (region == nullptr) return BusResponse{};
  ++transactions_;
  if (const auto mode = consume_fault();
      mode != OpbFaultControls::Mode::kNone) [[unlikely]] {
    BusResponse response;  // ok = false: error acknowledge or timeout
    response.wait_states = mode == OpbFaultControls::Mode::kTimeout
                               ? kTimeoutWaitStates
                               : kBusWaitStates;
    return response;
  }
  const Addr offset = (addr - region->base) & ~Addr{3};
  BusResponse response;
  response.ok = true;
  response.data = region->peripheral->read(offset);
  response.wait_states =
      kBusWaitStates + region->peripheral->device_wait_states();
  if (metrics_ != nullptr) {
    metrics_->reads += 1;
    metrics_->wait_cycles += response.wait_states;
    metrics_->wait.record(response.wait_states);
  }
  if (trace_bus_ != nullptr && trace_bus_->enabled()) {
    emit(obs::EventKind::kOpbRead, addr, response.wait_states);
  }
  return response;
}

BusResponse OpbBus::write(Addr addr, Word value) {
  Region* region = find(addr);
  if (region == nullptr) return BusResponse{};
  ++transactions_;
  if (const auto mode = consume_fault();
      mode != OpbFaultControls::Mode::kNone) [[unlikely]] {
    BusResponse response;  // ok = false; the write never reaches the slave
    response.wait_states = mode == OpbFaultControls::Mode::kTimeout
                               ? kTimeoutWaitStates
                               : kBusWaitStates;
    return response;
  }
  const Addr offset = (addr - region->base) & ~Addr{3};
  region->peripheral->write(offset, value);
  BusResponse response;
  response.ok = true;
  response.wait_states =
      kBusWaitStates + region->peripheral->device_wait_states();
  if (metrics_ != nullptr) {
    metrics_->writes += 1;
    metrics_->wait_cycles += response.wait_states;
    metrics_->wait.record(response.wait_states);
  }
  if (trace_bus_ != nullptr && trace_bus_->enabled()) {
    emit(obs::EventKind::kOpbWrite, addr, response.wait_states);
  }
  return response;
}

}  // namespace mbcosim::bus
