// PeripheralRegistry: the name -> hardware-factory table that lets a
// declarative machine description say `"type": "cordic"` and get a fresh
// sysgen model + its core::FslPort on the declared channel — the only
// way a peripheral reaches a SimSystem. Applications register their
// peripheral types once (apps::register_machine_peripherals installs the
// built-ins) and SimSystem::Builder resolves machine::PeripheralDesc
// entries against the table at build() time.
//
// Registration must finish before builds that use it start; lookups
// afterwards are const and safe from the concurrent builds of a sweep.
// Factories signal bad parameters by throwing SimError — the builder
// catches it and reports through its Expected channel.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "machine/machine_desc.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::sim {

/// Builds one peripheral instance from its description (type-specific
/// parameters come from PeripheralDesc::params). May throw SimError.
using PeripheralFactory =
    std::function<HardwareBundle(const machine::PeripheralDesc&)>;

class PeripheralRegistry {
 public:
  /// The process-wide table the machine builder consults.
  static PeripheralRegistry& instance();

  /// Register a type; fails (without replacing) when the name is taken.
  Status add(const std::string& type, PeripheralFactory factory);

  /// Factory for `type`, or nullptr when unregistered.
  [[nodiscard]] const PeripheralFactory* find(const std::string& type) const;

  /// Registered type names, sorted (for diagnostics).
  [[nodiscard]] std::vector<std::string> types() const;

 private:
  std::map<std::string, PeripheralFactory> factories_;
};

}  // namespace mbcosim::sim
