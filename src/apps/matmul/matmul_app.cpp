#include "apps/matmul/matmul_app.hpp"

#include <string>
#include <utility>

#include "apps/machine_peripherals.hpp"
#include "common/status.hpp"
#include "machine/machine_desc.hpp"

namespace mbcosim::apps::matmul {

Expected<sim::SimSystem> make_matmul_system(const MatmulRunConfig& config,
                                            const Matrix& a, const Matrix& b) {
  if (a.n != config.matrix_size || b.n != config.matrix_size) {
    return Expected<sim::SimSystem>::failure(
        "make_matmul_system: matrix size mismatch with config");
  }
  const bool pure_software = config.block_size == 0;

  const std::string source =
      pure_software ? pure_software_program(a, b)
                    : hw_driver_program(a, b, config.block_size);

  machine::MachineDesc desc = machine::MachineDesc::single_core(source);
  machine::CoreDesc& core = desc.cores.front();
  core.has_multiplier = true;
  core.has_barrel_shifter = false;
  core.memory_bytes = 256 * 1024;
  if (!pure_software) {
    // The registered "matmul" peripheral: the MAC array on FSL channel 0,
    // with its 2 * block_size + 16 drain bound as the quiescence window.
    register_machine_peripherals();
    machine::PeripheralDesc peripheral;
    peripheral.core = core.name;
    peripheral.type = "matmul";
    peripheral.params["block_size"] = config.block_size;
    desc.peripherals.push_back(std::move(peripheral));
  }
  return sim::SimSystem::Builder().machine(std::move(desc)).build();
}

MatmulRunResult run_matmul(const MatmulRunConfig& config, const Matrix& a,
                           const Matrix& b) {
  Expected<sim::SimSystem> built = make_matmul_system(config, a, b);
  if (!built) throw SimError("run_matmul: " + built.error());
  sim::SimSystem system = std::move(built).value();

  const core::StopReason reason = system.run(Cycle{1} << 36);
  if (reason != core::StopReason::kHalted) {
    throw SimError("run_matmul: co-simulation stopped abnormally (reason " +
                   std::to_string(static_cast<int>(reason)) + ")");
  }

  MatmulRunResult result;
  result.c = Matrix(config.matrix_size);
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

  for (unsigned i = 0; i < config.matrix_size * config.matrix_size; ++i) {
    result.c.data[i] = static_cast<i32>(system.word("mat_c", i));
  }
  return result;
}

}  // namespace mbcosim::apps::matmul
