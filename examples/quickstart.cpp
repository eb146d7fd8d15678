// Quickstart: build a tiny hardware peripheral out of sysgen blocks,
// register it by type name, describe a one-core machine that runs a small
// program with that peripheral on FSL channel 0, and run it.
//
// The "application" computes 3 * x + 1 for a few inputs: the multiply
// happens in hardware (one Mult block behind an FSL), the +1 and the
// control flow in software on the soft processor.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "machine/machine_desc.hpp"
#include "sim/peripheral_registry.hpp"
#include "sim/sim_system.hpp"
#include "sysgen/blocks_basic.hpp"

using namespace mbcosim;
namespace sg = mbcosim::sysgen;

namespace {

// ---- The hardware: a one-multiplier peripheral. -----------------------------
// A factory builds one fresh instance per system: the sysgen model plus the
// gateways it exposes on the FSL channel the machine description names.
sim::HardwareBundle make_times_three(const machine::PeripheralDesc& desc) {
  const FixFormat word32 = FixFormat::signed_fix(32, 0);
  const FixFormat boolf = FixFormat::unsigned_fix(1, 0);
  auto hw = std::make_unique<sg::Model>("times_three");
  auto& data_in = hw->add<sg::GatewayIn>("fsl.data", word32);
  auto& exists = hw->add<sg::GatewayIn>("fsl.exists", boolf);
  auto& control = hw->add<sg::GatewayIn>("fsl.control", boolf);
  auto& read_ack = hw->add<sg::GatewayOut>("fsl.read", exists.out());
  auto& three = hw->add<sg::Constant>("three", Fix::from_int(word32, 3));
  auto& product = hw->add<sg::Mult>("mult", data_in.out(), three.out(), word32,
                                    /*latency=*/0);
  auto& data_out = hw->add<sg::GatewayOut>("fsl.dout", product.out());
  auto& write = hw->add<sg::GatewayOut>("fsl.write", exists.out());

  sim::HardwareBundle bundle;
  bundle.ports.push_back({.channel = desc.channel,
                          .s_data = &data_in,
                          .s_exists = &exists,
                          .s_control = &control,
                          .s_read = &read_ack,
                          .m_data = &data_out,
                          .m_write = &write});
  bundle.model = std::move(hw);
  return bundle;
}

}  // namespace

int main() {
  // ---- 1. The software: an MB32 assembly program. --------------------------
  // It streams each input word to FSL channel 0, reads back the hardware
  // product, adds 1 and stores the result.
  const char* kSource = R"(
    start:
      la   r5, inputs
      la   r6, outputs
      li   r7, 4              # item count
    loop:
      lwi  r3, r5, 0
      put  r3, rfsl0          # x -> hardware
      get  r4, rfsl0          # 3*x <- hardware (blocking)
      addik r4, r4, 1         # +1 in software
      swi  r4, r6, 0
      addik r5, r5, 4
      addik r6, r6, 4
      addik r7, r7, -1
      bnei r7, loop
      halt
    inputs:  .word 1, 2, 10, 100
    outputs: .space 16
  )";

  // ---- 2. The machine: one core running kSource, the peripheral on FSL 0. ---
  (void)sim::PeripheralRegistry::instance().add("times_three",
                                                make_times_three);
  machine::MachineDesc desc = machine::MachineDesc::single_core(kSource);
  machine::PeripheralDesc peripheral;
  peripheral.core = "cpu0";
  peripheral.type = "times_three";  // on FSL channel 0 (the default)
  desc.peripherals.push_back(peripheral);

  // ---- 3. Build and run. ---------------------------------------------------
  auto built = sim::SimSystem::Builder().machine(std::move(desc)).build();
  if (!built) { std::fprintf(stderr, "%s\n", built.error().c_str()); return 1; }
  sim::SimSystem system = std::move(built).value();
  const core::StopReason reason = system.run();

  const core::CoSimStats stats = system.stats();
  std::printf("assembled %u bytes of MB32 code+data\n",
              system.program().size_bytes());
  std::printf("co-simulation stopped: %s after %llu cycles (%.1f usec at "
              "50 MHz), %llu instructions\n",
              reason == core::StopReason::kHalted ? "halted" : "error",
              static_cast<unsigned long long>(stats.cycles),
              cycles_to_usec(stats.cycles),
              static_cast<unsigned long long>(stats.instructions));

  for (unsigned i = 0; i < 4; ++i) {
    std::printf("  3 * %3u + 1 = %u\n", system.word("inputs", i),
                system.word("outputs", i));
  }
  return reason == core::StopReason::kHalted ? 0 : 1;
}
