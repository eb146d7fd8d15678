#include "apps/cordic/cordic_app.hpp"

#include <string>
#include <utility>

#include "apps/machine_peripherals.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "machine/machine_desc.hpp"

namespace mbcosim::apps::cordic {

std::pair<std::vector<i32>, std::vector<i32>> make_cordic_dataset(
    unsigned items, u64 seed) {
  Rng rng(seed);
  std::vector<i32> x;
  std::vector<i32> y;
  x.reserve(items);
  y.reserve(items);
  for (unsigned i = 0; i < items; ++i) {
    const double a = 0.5 + 1.5 * rng.next_double();          // [0.5, 2)
    const double q = -1.9 + 3.8 * rng.next_double();         // (-1.9, 1.9)
    const double b = a * q;
    x.push_back(static_cast<i32>(Fix::from_double(kDataFormat, a).raw()));
    y.push_back(static_cast<i32>(Fix::from_double(kDataFormat, b).raw()));
  }
  return {std::move(x), std::move(y)};
}

std::vector<i32> cordic_expected(const CordicRunConfig& config,
                                 std::span<const i32> x,
                                 std::span<const i32> y) {
  unsigned iterations = config.iterations;
  if (config.num_pes > 0) {
    iterations = cordic_passes(config.iterations, config.num_pes) *
                 config.num_pes;
  }
  std::vector<i32> expected;
  expected.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    expected.push_back(cordic_divide_raw(x[i], y[i], iterations));
  }
  return expected;
}

Expected<sim::SimSystem> make_cordic_system(const CordicRunConfig& config,
                                            std::span<const i32> x,
                                            std::span<const i32> y) {
  if (x.size() != y.size() || x.empty()) {
    return Expected<sim::SimSystem>::failure("make_cordic_system: bad dataset");
  }
  const bool pure_software = config.num_pes == 0;

  // Software.
  const std::string source =
      pure_software
          ? pure_software_program(x, y, config.iterations, config.sw_strategy)
          : hw_driver_program(x, y, config.iterations, config.num_pes,
                              config.set_size);

  // Processor configuration: the pure-software barrel-shifter strategy is
  // the only one that needs the barrel shifter option.
  machine::MachineDesc desc = machine::MachineDesc::single_core(source);
  machine::CoreDesc& core = desc.cores.front();
  core.has_multiplier = true;  // baseline MicroBlaze config (3 mults)
  core.has_barrel_shifter =
      pure_software && config.sw_strategy == ShiftStrategy::kBarrelShifter;
  desc.fifo_depth = config.fifo_depth;
  if (!pure_software) {
    // The registered "cordic" peripheral: the pipeline on FSL channel 0,
    // with its P + 16 drain bound as the quiescence window.
    register_machine_peripherals();
    machine::PeripheralDesc peripheral;
    peripheral.core = core.name;
    peripheral.type = "cordic";
    peripheral.params["num_pes"] = config.num_pes;
    desc.peripherals.push_back(std::move(peripheral));
  }
  return sim::SimSystem::Builder().machine(std::move(desc)).build();
}

CordicRunResult run_cordic(const CordicRunConfig& config,
                           std::span<const i32> x, std::span<const i32> y) {
  Expected<sim::SimSystem> built = make_cordic_system(config, x, y);
  if (!built) throw SimError("run_cordic: " + built.error());
  sim::SimSystem system = std::move(built).value();

  const core::StopReason reason = system.run(Cycle{1} << 36);
  if (reason != core::StopReason::kHalted) {
    throw SimError("run_cordic: co-simulation stopped abnormally (reason " +
                   std::to_string(static_cast<int>(reason)) + ")");
  }

  CordicRunResult result;
  const core::CoSimStats stats = system.stats();
  result.cycles = stats.cycles;
  result.instructions = stats.instructions;
  result.fsl_stall_cycles = stats.fsl_stall_cycles;
  result.fsl_words = stats.bridge.words_to_hw + stats.bridge.words_from_hw;
  result.sim_wall_seconds = system.run_wall_seconds();

  const estimate::ResourceReport report = system.resource_report();
  result.estimated_resources = report.estimated;
  result.implemented_resources = report.implemented;
  result.energy = system.energy_report(report.implemented);

  for (std::size_t i = 0; i < x.size(); ++i) {
    result.quotients_raw.push_back(
        static_cast<i32>(system.word("results", static_cast<u32>(i))));
  }
  return result;
}

}  // namespace mbcosim::apps::cordic
