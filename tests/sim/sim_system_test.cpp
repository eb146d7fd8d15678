// SimSystem facade: builder error paths (every configuration problem
// comes back through Expected, never a throw) and equivalence with the
// hand-wired low-level API (identical cycle counts and results).
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "core/cosim_engine.hpp"
#include "sim/peripheral_registry.hpp"
#include "sim/sim_system.hpp"
#include "sysgen/blocks_basic.hpp"

namespace mbcosim::sim {
namespace {

namespace sg = mbcosim::sysgen;

// The quickstart "times three" application: multiply in hardware over
// FSL channel 0, +1 and control flow in software.
constexpr const char* kTimesThreeSource = R"(
  start:
    la   r5, inputs
    la   r6, outputs
    li   r7, 4
  loop:
    lwi  r3, r5, 0
    put  r3, rfsl0
    get  r4, rfsl0
    addik r4, r4, 1
    swi  r4, r6, 0
    addik r5, r5, 4
    addik r6, r6, 4
    addik r7, r7, -1
    bnei r7, loop
    halt
  inputs:  .word 1, 2, 10, 100
  outputs: .space 16
)";

struct TimesThree {
  std::unique_ptr<sg::Model> model;
  core::FslPort io;
};

TimesThree build_times_three() {
  const FixFormat word32 = FixFormat::signed_fix(32, 0);
  const FixFormat boolf = FixFormat::unsigned_fix(1, 0);
  TimesThree hw;
  hw.model = std::make_unique<sg::Model>("times_three");
  auto& data_in = hw.model->add<sg::GatewayIn>("fsl.data", word32);
  auto& exists = hw.model->add<sg::GatewayIn>("fsl.exists", boolf);
  auto& read_ack = hw.model->add<sg::GatewayOut>("fsl.read", exists.out());
  auto& three =
      hw.model->add<sg::Constant>("three", Fix::from_int(word32, 3));
  auto& product = hw.model->add<sg::Mult>("mult", data_in.out(), three.out(),
                                          word32, /*latency=*/0);
  auto& data_out = hw.model->add<sg::GatewayOut>("fsl.dout", product.out());
  auto& write = hw.model->add<sg::GatewayOut>("fsl.write", exists.out());
  hw.io.s_data = &data_in;
  hw.io.s_exists = &exists;
  hw.io.s_read = &read_ack;
  hw.io.m_data = &data_out;
  hw.io.m_write = &write;
  return hw;
}

/// Build `source` on one core whose FSL channel 0 hosts the peripheral
/// `type`, registering `type` with `factory` on first use (each test
/// peripheral gets a name of its own).
Expected<SimSystem> build_with(const std::string& type,
                               PeripheralFactory factory,
                               const std::string& source,
                               Cycle deadlock_threshold = 100'000) {
  (void)PeripheralRegistry::instance().add(type, std::move(factory));
  machine::MachineDesc desc = machine::MachineDesc::single_core(source);
  machine::PeripheralDesc peripheral;
  peripheral.core = desc.cores.front().name;
  peripheral.type = type;
  desc.peripherals.push_back(peripheral);
  return SimSystem::Builder()
      .machine(std::move(desc))
      .deadlock_threshold(deadlock_threshold)
      .build();
}

/// The times-three peripheral bound to channel `channel` with a port
/// `edit` may damage.
PeripheralFactory times_three(unsigned channel,
                              void (*edit)(core::FslPort&) = nullptr) {
  return [channel, edit](const machine::PeripheralDesc&) {
    TimesThree hw = build_times_three();
    if (edit != nullptr) edit(hw.io);
    hw.io.channel = channel;
    HardwareBundle bundle;
    bundle.ports.push_back(hw.io);
    bundle.model = std::move(hw.model);
    return bundle;
  };
}

TEST(SimSystemBuilder, MissingProgramIsAnError) {
  auto built = SimSystem::Builder().build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("no machine"), std::string::npos);
}

TEST(SimSystemBuilder, BadAssemblyIsAnError) {
  auto built = SimSystem::Builder()
                   .machine(machine::MachineDesc::single_core(
                       "frobnicate r1, r2\n"))
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("does not assemble"), std::string::npos);
}

TEST(SimSystemBuilder, ChannelOutOfRangeIsAnError) {
  auto built = build_with("test.times_three_ch8", times_three(8), "halt\n");
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("out of range"), std::string::npos);
}

TEST(SimSystemBuilder, ChannelBoundTwiceIsAnError) {
  auto built = build_with(
      "test.times_three_twice",
      [](const machine::PeripheralDesc&) {
        TimesThree hw = build_times_three();
        HardwareBundle bundle;
        bundle.ports.push_back(hw.io);
        bundle.ports.push_back(hw.io);
        bundle.model = std::move(hw.model);
        return bundle;
      },
      "halt\n");
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("bound twice"), std::string::npos);
}

TEST(SimSystemBuilder, IncompleteSlaveSideIsAnError) {
  // The slave side lacks its required read ack.
  auto built = build_with(
      "test.times_three_no_read",
      times_three(0, [](core::FslPort& io) { io.s_read = nullptr; }),
      "halt\n");
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("s_read"), std::string::npos);
}

TEST(SimSystemBuilder, EmptyGatewaySetIsAnError) {
  auto built = build_with("test.times_three_empty",
                          times_three(0, [](core::FslPort& io) { io = {}; }),
                          "halt\n");
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("binds no gateways"), std::string::npos);
}

TEST(SimSystemBuilder, FactoryExceptionIsCaptured) {
  auto built = build_with(
      "test.exploding",
      [](const machine::PeripheralDesc&) -> HardwareBundle {
        throw SimError("peripheral generator exploded");
      },
      "halt\n");
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("peripheral generator exploded"),
            std::string::npos);
}

TEST(SimSystemBuilder, ProgramTooLargeForMemoryIsAnError) {
  machine::MachineDesc desc =
      machine::MachineDesc::single_core(".space 4096\nhalt\n");
  desc.cores.front().memory_bytes = 1024;
  auto built = SimSystem::Builder().machine(std::move(desc)).build();
  ASSERT_FALSE(built.ok());
}

// The acceptance check of the facade: building through SimSystem must be
// cycle- and bit-identical to the ~20-line hand wiring it replaces.
TEST(SimSystem, MatchesManualWiring) {
  // Manual low-level wiring, exactly as examples/custom_peripheral.cpp.
  TimesThree manual_hw = build_times_three();
  const assembler::Program program =
      assembler::assemble_or_throw(kTimesThreeSource);
  iss::LmbMemory memory;
  memory.load_program(program);
  fsl::FslHub hub;
  iss::Processor cpu(isa::CpuConfig{}, memory, &hub);
  core::CoSimEngine engine(cpu, manual_hw.model.get(), hub);
  ASSERT_TRUE(engine.bridge().bind(manual_hw.io).ok);
  engine.reset(program.entry());
  const core::StopReason manual_reason = engine.run();
  const core::CoSimStats manual_stats = engine.stats();

  // The same design through the facade.
  auto built =
      build_with("test.times_three", times_three(0), kTimesThreeSource);
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  const core::StopReason reason = system.run();
  const core::CoSimStats stats = system.stats();

  EXPECT_EQ(reason, manual_reason);
  EXPECT_EQ(stats.cycles, manual_stats.cycles);
  EXPECT_EQ(stats.instructions, manual_stats.instructions);
  EXPECT_EQ(stats.fsl_stall_cycles, manual_stats.fsl_stall_cycles);
  EXPECT_EQ(stats.bridge.words_to_hw, manual_stats.bridge.words_to_hw);
  EXPECT_EQ(stats.bridge.words_from_hw, manual_stats.bridge.words_from_hw);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(system.word("outputs", i),
              memory.read_word(program.symbol("outputs") + 4 * i));
  }
}

TEST(SimSystem, SoftwareOnlySystemRuns) {
  auto built = SimSystem::Builder()
                   .machine(machine::MachineDesc::single_core(R"(
                     li  r3, 0
                     li  r4, 10
                   loop:
                     addik r3, r3, 7
                     addik r4, r4, -1
                     bnei r4, loop
                     la  r5, result
                     swi r3, r5, 0
                     halt
                   result: .space 4
                   )"))
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  EXPECT_EQ(system.hardware(), nullptr);
  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  EXPECT_EQ(system.word("result"), 70u);
  EXPECT_GT(system.stats().cycles, 0u);
  EXPECT_EQ(system.stats().hw_cycles_stepped, 0u);
}

TEST(SimSystem, SoftwareOnlyDeadlockIsReported) {
  // A blocking FSL read with no hardware attached can never complete.
  auto built = SimSystem::Builder()
                   .machine(machine::MachineDesc::single_core(
                       "get r4, rfsl0\nhalt\n"))
                   .deadlock_threshold(200)
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  EXPECT_EQ(system.run(), core::StopReason::kDeadlock);
}

TEST(SimSystem, HardwareDeadlockIsReported) {
  // A peripheral that never reads nor writes: the processor's blocking
  // get starves and the engine's deadlock heuristic must fire.
  const auto dead = [](const machine::PeripheralDesc&) {
    auto model = std::make_unique<sg::Model>("dead");
    const FixFormat word32 = FixFormat::signed_fix(32, 0);
    const FixFormat boolf = FixFormat::unsigned_fix(1, 0);
    auto& data_in = model->add<sg::GatewayIn>("fsl.data", word32);
    auto& exists = model->add<sg::GatewayIn>("fsl.exists", boolf);
    auto& never =
        model->add<sg::Constant>("never", Fix::from_int(boolf, 0));
    auto& read_ack = model->add<sg::GatewayOut>("fsl.read", never.out());
    HardwareBundle bundle;
    bundle.ports.push_back(
        {.s_data = &data_in, .s_exists = &exists, .s_read = &read_ack});
    bundle.model = std::move(model);
    return bundle;
  };
  auto built = build_with("test.dead", dead,
                          "put r3, rfsl0\nget r4, rfsl0\nhalt\n", 500);
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  EXPECT_EQ(system.run(), core::StopReason::kDeadlock);
}

TEST(SimSystem, ResetAllowsRerun) {
  auto built =
      build_with("test.times_three", times_three(0), kTimesThreeSource);
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  const Cycle first = system.stats().cycles;
  system.reset();
  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  EXPECT_EQ(system.stats().cycles, first);
}

TEST(SimSystem, ResourceAndEnergyReportsCoverTheWholeDesign) {
  auto built =
      build_with("test.times_three", times_three(0), kTimesThreeSource);
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  const auto report = system.resource_report();
  EXPECT_GT(report.estimated.slices, 0u);
  EXPECT_GT(report.estimated.mult18s, 0u);  // the peripheral's multiplier
  const auto energy = system.energy_report();
  EXPECT_GT(energy.processor_nj, 0.0);
  EXPECT_GT(energy.peripheral_nj, 0.0);
  EXPECT_EQ(energy.cycles, system.stats().cycles);
}

}  // namespace
}  // namespace mbcosim::sim
