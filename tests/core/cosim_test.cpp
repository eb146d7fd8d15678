// Integration tests for the co-simulation engine: software + hardware
// advance in lock step through the FSL.
#include "core/cosim_engine.hpp"

#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "sysgen/blocks_basic.hpp"

namespace mbcosim::core {
namespace {

namespace sg = mbcosim::sysgen;
const FixFormat kWord = FixFormat::signed_fix(32, 0);
const FixFormat kBool = FixFormat::unsigned_fix(1, 0);

/// Echo-plus-one peripheral used by the engine tests.
struct EchoHw {
  EchoHw()
      : model("echo"),
        data_in(model.add<sg::GatewayIn>("s.data", kWord)),
        exists_in(model.add<sg::GatewayIn>("s.exists", kBool)),
        control_in(model.add<sg::GatewayIn>("s.control", kBool)),
        read_out(model.add<sg::GatewayOut>("s.read", exists_in.out())),
        one(model.add<sg::Constant>("one", Fix::from_int(kWord, 1))),
        inc(model.add<sg::AddSub>("inc", sg::AddSub::Mode::kAdd,
                                  data_in.out(), one.out(), kWord)),
        data_out(model.add<sg::GatewayOut>("m.data", inc.out())),
        write_out(model.add<sg::GatewayOut>("m.write", exists_in.out())) {}

  [[nodiscard]] Status bind(FslBridge& bridge) {
    return bridge.bind({.channel = 0,
                        .s_data = &data_in,
                        .s_exists = &exists_in,
                        .s_control = &control_in,
                        .s_read = &read_out,
                        .m_data = &data_out,
                        .m_write = &write_out});
  }

  sg::Model model;
  sg::GatewayIn& data_in;
  sg::GatewayIn& exists_in;
  sg::GatewayIn& control_in;
  sg::GatewayOut& read_out;
  sg::Constant& one;
  sg::AddSub& inc;
  sg::GatewayOut& data_out;
  sg::GatewayOut& write_out;
};

struct CoSimFixture {
  explicit CoSimFixture(std::string_view source)
      : program(assembler::assemble_or_throw(source)),
        memory(64 * 1024),
        cpu(isa::CpuConfig{}, memory, &hub),
        engine(cpu, &hw.model, hub) {
    memory.load_program(program);
    if (!hw.bind(engine.bridge()).ok) {
      throw SimError("CoSimFixture: the echo peripheral does not bind");
    }
    engine.reset(program.entry());
  }

  assembler::Program program;
  iss::LmbMemory memory;
  fsl::FslHub hub;
  EchoHw hw;
  iss::Processor cpu;
  CoSimEngine engine;
};

TEST(CoSim, RoundTripThroughHardware) {
  CoSimFixture f(
      "  li r3, 41\n"
      "  put r3, rfsl0\n"
      "  get r4, rfsl0\n"   // blocking: waits for the echo
      "  halt\n");
  EXPECT_EQ(f.engine.run(), StopReason::kHalted);
  EXPECT_EQ(f.cpu.reg(4), 42u);
  // The echo is single-cycle, so the blocking get may or may not stall;
  // either way the word round-trips through the hardware model.
  EXPECT_EQ(f.engine.stats().bridge.words_from_hw, 1u);
}

TEST(CoSim, ManyWordsPipeline) {
  CoSimFixture f(
      "  li r5, 10\n"         // count
      "  addk r6, r0, r0\n"   // accumulator of echoed values
      "  addk r7, r0, r0\n"   // i
      "loop:\n"
      "  put r7, rfsl0\n"
      "  get r3, rfsl0\n"
      "  addk r6, r6, r3\n"
      "  addik r7, r7, 1\n"
      "  rsub r4, r7, r5\n"
      "  bnei r4, loop\n"
      "  halt\n");
  EXPECT_EQ(f.engine.run(), StopReason::kHalted);
  // sum of (i + 1) for i = 0..9 = 55.
  EXPECT_EQ(f.cpu.reg(6), 55u);
  EXPECT_EQ(f.engine.stats().bridge.words_to_hw, 10u);
  EXPECT_EQ(f.engine.stats().bridge.words_from_hw, 10u);
}

TEST(CoSim, HardwareAndCpuClocksStayInLockStep) {
  CoSimFixture f(
      "  li r3, 1\n"
      "  put r3, rfsl0\n"
      "  get r4, rfsl0\n"
      "  halt\n");
  f.engine.run();
  EXPECT_EQ(f.hw.model.cycle(), f.cpu.stats().cycles);
}

TEST(CoSim, DeadlockDetected) {
  CoSimFixture f(
      "  get r3, rfsl0\n"   // nothing will ever arrive
      "  halt\n");
  f.engine.set_deadlock_threshold(500);
  EXPECT_EQ(f.engine.run(), StopReason::kDeadlock);
}

TEST(CoSim, CycleLimitRespected) {
  CoSimFixture f(
      "loop: bri loop2\n"
      "loop2: bri loop\n");
  EXPECT_EQ(f.engine.run(100), StopReason::kCycleLimit);
  EXPECT_GE(f.cpu.stats().cycles, 100u);
}

TEST(CoSim, IllegalInstructionReported) {
  CoSimFixture f("  .word 0xFC000000\n");
  EXPECT_EQ(f.engine.run(), StopReason::kIllegal);
}

TEST(CoSim, ResetRestartsBothSides) {
  CoSimFixture f(
      "  li r3, 1\n"
      "  put r3, rfsl0\n"
      "  get r4, rfsl0\n"
      "  halt\n");
  f.engine.run();
  const Word first = f.cpu.reg(4);
  f.engine.reset(f.program.entry());
  EXPECT_EQ(f.cpu.reg(4), 0u);
  EXPECT_EQ(f.engine.run(), StopReason::kHalted);
  EXPECT_EQ(f.cpu.reg(4), first);
}

TEST(CoSim, TickHardwareAdvancesModelOnly) {
  CoSimFixture f("halt\n");
  const Cycle before = f.hw.model.cycle();
  f.engine.tick_hardware(7);
  EXPECT_EQ(f.hw.model.cycle(), before + 7);
  EXPECT_EQ(f.cpu.stats().cycles, 0u);
}

}  // namespace
}  // namespace mbcosim::core
