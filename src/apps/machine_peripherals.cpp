#include "apps/machine_peripherals.hpp"

#include <string>
#include <utility>

#include "apps/cordic/cordic_hw.hpp"
#include "apps/matmul/matmul_hw.hpp"
#include "common/status.hpp"
#include "sim/peripheral_registry.hpp"

namespace mbcosim::apps {

namespace {

/// The one integer parameter `key` of the description; throws SimError
/// when it is missing or when the description carries unknown keys (a
/// typo in a machine file should fail loudly, not fall back silently).
long long required_param(const machine::PeripheralDesc& desc,
                         const std::string& key) {
  for (const auto& [name, value] : desc.params) {
    if (name != key) {
      throw SimError("peripheral type '" + desc.type +
                     "' does not take a parameter '" + name + "'");
    }
  }
  const auto it = desc.params.find(key);
  if (it == desc.params.end()) {
    throw SimError("peripheral type '" + desc.type +
                   "' requires the parameter '" + key + "'");
  }
  return it->second;
}

sim::HardwareBundle make_cordic(const machine::PeripheralDesc& desc) {
  const long long num_pes = required_param(desc, "num_pes");
  if (num_pes < 1 || num_pes > 32) {
    throw SimError("cordic peripheral: num_pes must be in [1, 32]");
  }
  cordic::CordicPipeline pipeline =
      cordic::build_cordic_pipeline(static_cast<unsigned>(num_pes));
  pipeline.io.channel = desc.channel;
  sim::HardwareBundle bundle;
  bundle.ports.push_back(pipeline.io);
  bundle.model = std::move(pipeline.model);
  // Drain bound: P pipeline stages + deserializer/serializer latency.
  bundle.quiescence = static_cast<Cycle>(num_pes) + 16;
  return bundle;
}

sim::HardwareBundle make_matmul(const machine::PeripheralDesc& desc) {
  const long long block_size = required_param(desc, "block_size");
  if (block_size < 2 || block_size > 4) {
    throw SimError("matmul peripheral: block_size must be in [2, 4]");
  }
  matmul::MatmulPeripheral peripheral =
      matmul::build_matmul_peripheral(static_cast<unsigned>(block_size));
  peripheral.io.channel = desc.channel;
  sim::HardwareBundle bundle;
  bundle.ports.push_back(peripheral.io);
  bundle.model = std::move(peripheral.model);
  // Drain bound: one block row in the MAC array + the serializer.
  bundle.quiescence = static_cast<Cycle>(2 * block_size) + 16;
  return bundle;
}

}  // namespace

void register_machine_peripherals() {
  // Once per process; a function-local static also makes concurrent
  // first calls (the app factories run on sweep worker threads) safe.
  static const bool registered = [] {
    sim::PeripheralRegistry& registry = sim::PeripheralRegistry::instance();
    (void)registry.add("cordic", make_cordic);
    (void)registry.add("matmul", make_matmul);
    return true;
  }();
  (void)registered;
}

}  // namespace mbcosim::apps
