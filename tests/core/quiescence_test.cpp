// The quiescence optimization (paper §III-A: hardware is simulated
// "whenever there is data coming from the processor") must be purely an
// optimization: identical architectural results and identical cycle
// counts, with and without it.
#include <gtest/gtest.h>

#include "apps/cordic/cordic_app.hpp"
#include "apps/cordic/cordic_hw.hpp"
#include "apps/cordic/cordic_sw.hpp"
#include "asm/assembler.hpp"
#include "core/cosim_engine.hpp"

namespace mbcosim::core {
namespace {

struct CordicRig {
  explicit CordicRig(unsigned num_pes, const std::string& source)
      : program(assembler::assemble_or_throw(source)),
        memory(64 * 1024),
        cpu(make_config(), memory, &hub),
        pipeline(apps::cordic::build_cordic_pipeline(num_pes)),
        engine(cpu, pipeline.model.get(), hub) {
    memory.load_program(program);
    if (!engine.bridge().bind(pipeline.io).ok) {
      throw SimError("CordicRig: the pipeline does not bind");
    }
    engine.reset(program.entry());
  }

  static isa::CpuConfig make_config() {
    isa::CpuConfig config;
    config.has_barrel_shifter = false;
    return config;
  }

  assembler::Program program;
  iss::LmbMemory memory;
  fsl::FslHub hub;
  iss::Processor cpu;
  apps::cordic::CordicPipeline pipeline;
  CoSimEngine engine;
};

std::string driver_source(unsigned num_pes) {
  auto [x, y] = apps::cordic::make_cordic_dataset(10, 31);
  return apps::cordic::hw_driver_program(x, y, 24, num_pes, 5);
}

TEST(Quiescence, SkipIsCycleExact) {
  for (unsigned p : {2u, 4u, 8u}) {
    const std::string source = driver_source(p);
    CordicRig baseline(p, source);
    ASSERT_EQ(baseline.engine.run(), StopReason::kHalted);

    CordicRig optimized(p, source);
    optimized.engine.set_quiescence_window(p + 16);
    ASSERT_EQ(optimized.engine.run(), StopReason::kHalted);

    EXPECT_EQ(optimized.cpu.stats().cycles, baseline.cpu.stats().cycles)
        << "P=" << p;
    EXPECT_GT(optimized.engine.stats().hw_cycles_skipped, 0u)
        << "the optimization should actually trigger";
    EXPECT_EQ(optimized.engine.stats().hw_cycles_skipped +
                  optimized.engine.stats().hw_cycles_stepped,
              baseline.engine.stats().hw_cycles_stepped);

    // Identical architectural results.
    const Addr results = baseline.program.symbol("results");
    for (unsigned i = 0; i < 10; ++i) {
      EXPECT_EQ(optimized.memory.read_word(results + 4 * i),
                baseline.memory.read_word(results + 4 * i));
    }
  }
}

TEST(Quiescence, SkippedCyclesReported) {
  const std::string source = driver_source(4);
  CordicRig rig(4, source);
  rig.engine.set_quiescence_window(20);
  rig.engine.run();
  const CoSimStats stats = rig.engine.stats();
  // The hardware clock (stepped + skipped) tracks the processor clock.
  EXPECT_EQ(stats.hw_cycles_stepped + stats.hw_cycles_skipped, stats.cycles);
}

TEST(Quiescence, DisabledByDefault) {
  const std::string source = driver_source(2);
  CordicRig rig(2, source);
  rig.engine.run();
  EXPECT_EQ(rig.engine.stats().hw_cycles_skipped, 0u);
  EXPECT_EQ(rig.pipeline.model->cycle(), rig.cpu.stats().cycles);
}

TEST(Quiescence, ResetClearsSkipState) {
  const std::string source = driver_source(2);
  CordicRig rig(2, source);
  rig.engine.set_quiescence_window(18);
  rig.engine.run();
  const Cycle first = rig.cpu.stats().cycles;
  rig.engine.reset(rig.program.entry());
  EXPECT_EQ(rig.engine.stats().hw_cycles_skipped, 0u);
  rig.engine.run();
  EXPECT_EQ(rig.cpu.stats().cycles, first);  // fully reproducible
}

}  // namespace
}  // namespace mbcosim::core
