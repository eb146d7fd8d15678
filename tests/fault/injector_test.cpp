// Injector + component fault hooks: FSL stream/stuck faults, OPB error
// and timeout responses, memory/register flips (including the predecode
// invalidation on a text hit), and the zero-cost contract — a system
// with no plan armed is bit-identical to one that never heard of the
// fault subsystem.
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "apps/cordic/cordic_app.hpp"
#include "apps/machine_peripherals.hpp"
#include "bus/opb_bus.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fsl/fsl_channel.hpp"
#include "fsl/fsl_hub.hpp"
#include "obs/jsonl_sink.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::fault {
namespace {

// -- FSL channel stream faults ----------------------------------------------

TEST(FslChannelFault, CorruptXorsOneWordThenPassesThrough) {
  fsl::FslChannel channel(4, "t");
  fsl::FslFaultControls controls;
  controls.stream = fsl::FslFaultControls::Stream::kCorrupt;
  controls.mask = 0xff;
  controls.countdown = 1;  // let one word through first
  channel.arm_fault(controls);

  ASSERT_TRUE(channel.try_write(0x100, false));
  ASSERT_TRUE(channel.try_write(0x200, false));  // the corrupted one
  ASSERT_TRUE(channel.try_write(0x300, false));
  EXPECT_EQ(channel.try_read()->data, 0x100u);
  EXPECT_EQ(channel.try_read()->data, 0x2ffu);   // 0x200 ^ 0xff
  EXPECT_EQ(channel.try_read()->data, 0x300u);   // one-shot: back to normal
}

TEST(FslChannelFault, DropLosesTheWordButAcksTheHandshake) {
  fsl::FslChannel channel(4, "t");
  fsl::FslFaultControls controls;
  controls.stream = fsl::FslFaultControls::Stream::kDrop;
  channel.arm_fault(controls);

  ASSERT_TRUE(channel.try_write(0xdead, false));  // writer sees success
  EXPECT_EQ(channel.occupancy(), 0u);             // but nothing arrived
  EXPECT_EQ(channel.total_writes(), 1u);
  ASSERT_TRUE(channel.try_write(0xbeef, false));
  EXPECT_EQ(channel.try_read()->data, 0xbeefu);
}

TEST(FslChannelFault, DuplicateEnqueuesTwice) {
  fsl::FslChannel channel(4, "t");
  fsl::FslFaultControls controls;
  controls.stream = fsl::FslFaultControls::Stream::kDuplicate;
  channel.arm_fault(controls);

  ASSERT_TRUE(channel.try_write(7, true));
  EXPECT_EQ(channel.occupancy(), 2u);
  EXPECT_EQ(channel.try_read()->data, 7u);
  EXPECT_EQ(channel.try_read()->data, 7u);
}

TEST(FslChannelFault, FlipControlInvertsTheControlBit) {
  fsl::FslChannel channel(4, "t");
  fsl::FslFaultControls controls;
  controls.stream = fsl::FslFaultControls::Stream::kFlipControl;
  channel.arm_fault(controls);

  ASSERT_TRUE(channel.try_write(1, true));
  EXPECT_FALSE(channel.try_read()->control);
}

TEST(FslChannelFault, StuckFlagsOverrideTheRealState) {
  fsl::FslChannel channel(2, "t");
  fsl::FslFaultControls stuck_full;
  stuck_full.stuck_full = true;
  channel.arm_fault(stuck_full);
  EXPECT_TRUE(channel.full());                // despite being empty
  EXPECT_FALSE(channel.try_write(1, false));  // every write refused

  channel.clear_fault();
  ASSERT_TRUE(channel.try_write(1, false));
  fsl::FslFaultControls stuck_empty;
  stuck_empty.stuck_empty = true;
  channel.arm_fault(stuck_empty);
  EXPECT_FALSE(channel.exists());  // the queued word is invisible
  EXPECT_FALSE(channel.try_read().has_value());
  channel.clear_fault();
  EXPECT_EQ(channel.try_read()->data, 1u);  // still there after clearing
}

TEST(FslChannelFault, CorruptEntryHitsQueuedWordInPlace) {
  fsl::FslChannel channel(4, "t");
  ASSERT_TRUE(channel.try_write(0xf0, true));
  EXPECT_TRUE(channel.corrupt_entry(0, 0x0f, true));
  const auto entry = channel.try_read();
  EXPECT_EQ(entry->data, 0xffu);
  EXPECT_FALSE(entry->control);
  EXPECT_FALSE(channel.corrupt_entry(5, 1, false));  // out of range: masked
}

// -- OPB bus faults ---------------------------------------------------------

TEST(OpbBusFault, ErrorAndTimeoutFailOneTransaction) {
  bus::OpbBus bus;
  bus.map("scratch", 0xc000'0000, 64,
          std::make_unique<bus::OpbScratchpad>(16));
  ASSERT_TRUE(bus.write(0xc000'0000, 42).ok);

  bus::OpbFaultControls controls;
  controls.mode = bus::OpbFaultControls::Mode::kError;
  controls.countdown = 1;  // fire on the second decoded transaction
  bus.arm_fault(controls);
  EXPECT_TRUE(bus.read(0xc000'0000).ok);  // passes through
  const bus::BusResponse errored = bus.read(0xc000'0000);
  EXPECT_FALSE(errored.ok);
  EXPECT_EQ(errored.wait_states, bus::OpbBus::kBusWaitStates);
  EXPECT_TRUE(bus.read(0xc000'0000).ok);  // one-shot

  bus.arm_fault({bus::OpbFaultControls::Mode::kTimeout, 0, false});
  const bus::BusResponse timed_out = bus.write(0xc000'0000, 1);
  EXPECT_FALSE(timed_out.ok);
  EXPECT_EQ(timed_out.wait_states, bus::OpbBus::kTimeoutWaitStates);
}

// -- point-triggered injections through SimSystem ---------------------------

constexpr const char* kAddLoop = R"(
  start:
    la   r5, input
    lwi  r3, r5, 0
  flip_me:
    addik r3, r3, 1
    la   r6, output
    swi  r3, r6, 0
    halt
  input:  .word 100
  unused: .word 0
  output: .space 4
)";

/// A builder for the one-core machine running `source`.
sim::SimSystem::Builder one_core(std::string source) {
  sim::SimSystem::Builder builder;
  builder.machine(machine::MachineDesc::single_core(std::move(source)));
  return builder;
}

sim::SimSystem build_or_die(sim::SimSystem::Builder& builder) {
  auto built = builder.build();
  if (!built.ok()) throw SimError(built.error());
  return std::move(built).value();
}

sim::SimSystem build_or_die(sim::SimSystem::Builder&& builder) {
  return build_or_die(builder);
}

TEST(Injector, RegisterFlipAtPcChangesTheResult) {
  auto system = build_or_die(one_core(kAddLoop));
  FaultPlan plan;
  plan.site = FaultSite::kRegister;
  plan.mode = FaultMode::kBitFlip;
  plan.trigger = TriggerKind::kPc;
  plan.trigger_value = system.symbol("flip_me");  // the addik
  plan.reg = 3;
  plan.mask = 0x1000;
  ASSERT_TRUE(system.arm_fault(plan).ok);
  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  ASSERT_NE(system.fault_injector(), nullptr);
  EXPECT_TRUE(system.fault_injector()->applied());
  EXPECT_EQ(system.word("output"), (100u ^ 0x1000u) + 1u);
}

TEST(Injector, MemoryFlipOnInputDataPropagates) {
  auto system = build_or_die(one_core(kAddLoop));
  FaultPlan plan;
  plan.site = FaultSite::kMemory;
  plan.mode = FaultMode::kBitFlip;
  plan.trigger = TriggerKind::kCycle;
  plan.trigger_value = 1;  // before the load
  plan.address = system.symbol("input");
  plan.mask = 0x8;
  ASSERT_TRUE(system.arm_fault(plan).ok);
  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  EXPECT_EQ(system.word("output"), 109u);  // (100 ^ 8) + 1
}

TEST(Injector, MemoryFlipOnTextInvalidatesPredecode) {
  // Flip the addik instruction word itself: with the predecode cache hot
  // this only takes effect if the injection invalidates the line (the
  // SMC path). An `addik r3, r3, 1` with bit 1 flipped in the immediate
  // becomes `addik r3, r3, 3`.
  auto system = build_or_die(one_core(kAddLoop));
  FaultPlan plan;
  plan.site = FaultSite::kMemory;
  plan.mode = FaultMode::kBitFlip;
  plan.trigger = TriggerKind::kCycle;
  plan.trigger_value = 1;
  plan.address = system.symbol("flip_me");  // the addik's own word
  plan.mask = 0x2;
  ASSERT_TRUE(system.arm_fault(plan).ok);
  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  EXPECT_EQ(system.word("output"), 103u);  // 100 + 3, not 100 + 1
}

TEST(Injector, FlipOutsideMemoryIsMaskedByConstruction) {
  auto system = build_or_die(one_core(kAddLoop));
  FaultPlan plan;
  plan.site = FaultSite::kMemory;
  plan.mode = FaultMode::kBitFlip;
  plan.trigger = TriggerKind::kCycle;
  plan.trigger_value = 1;
  plan.address = 0x7fff'fff0;  // far outside the 64 KiB LMB
  ASSERT_TRUE(system.arm_fault(plan).ok);
  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  ASSERT_NE(system.fault_injector(), nullptr);
  EXPECT_FALSE(system.fault_injector()->applied());
  EXPECT_NE(system.fault_injector()->detail().find("masked"),
            std::string::npos);
  EXPECT_EQ(system.word("output"), 101u);  // untouched execution
}

TEST(Injector, NeverFiringPlanLeavesRunBitIdentical) {
  // Baseline without any fault subsystem involvement.
  auto golden = build_or_die(one_core(kAddLoop));
  ASSERT_EQ(golden.run(), core::StopReason::kHalted);
  const core::CoSimStats golden_stats = golden.stats();

  // A plan triggered far past the halt: armed, never fires.
  FaultPlan plan;
  plan.site = FaultSite::kMemory;
  plan.mode = FaultMode::kBitFlip;
  plan.trigger = TriggerKind::kCycle;
  plan.trigger_value = 1'000'000;
  plan.address = 0;
  auto armed = build_or_die(
      one_core(kAddLoop).fault(plan));
  ASSERT_EQ(armed.run(), core::StopReason::kHalted);
  const core::CoSimStats armed_stats = armed.stats();

  EXPECT_EQ(armed_stats.cycles, golden_stats.cycles);
  EXPECT_EQ(armed_stats.instructions, golden_stats.instructions);
  EXPECT_EQ(armed_stats.fsl_stall_cycles, golden_stats.fsl_stall_cycles);
  EXPECT_EQ(armed.word("output"), golden.word("output"));
  ASSERT_NE(armed.fault_injector(), nullptr);
  EXPECT_FALSE(armed.fault_injector()->applied());
}

TEST(Injector, BuilderRejectsInconsistentPlan) {
  FaultPlan plan;
  plan.site = FaultSite::kOpb;
  plan.mode = FaultMode::kBitFlip;  // not a bus mode
  plan.trigger = TriggerKind::kCycle;
  plan.trigger_value = 1;
  auto built =
      one_core(kAddLoop).fault(plan).build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("buserror or timeout"), std::string::npos);
}

// -- PC triggers on a co-simulated design -----------------------------------

/// The P=2 CORDIC design the RSP parity tests debug.
sim::SimSystem cordic_p2() {
  apps::cordic::CordicRunConfig config;
  config.num_pes = 2;
  config.iterations = 24;
  config.items = 6;
  config.set_size = 2;
  const auto [x, y] = apps::cordic::make_cordic_dataset(config.items, 0x5E55);
  auto built = apps::cordic::make_cordic_system(config, x, y);
  if (!built.ok()) throw SimError(built.error());
  return std::move(built).value();
}

TEST(Injector, PcTriggeredFlipOnCoSimulatedCordic) {
  // Flip the first stored quotient just before the `swi` writes it out.
  // Reaching the trigger steps the hardware in lock step with the
  // processor, so the run's timing is the fault-free run's.
  sim::SimSystem clean = cordic_p2();
  ASSERT_EQ(clean.run(), core::StopReason::kHalted);
  sim::SimSystem faulted = cordic_p2();
  FaultPlan plan;
  plan.site = FaultSite::kRegister;
  plan.mode = FaultMode::kBitFlip;
  plan.trigger = TriggerKind::kPc;
  plan.trigger_value = faulted.symbol("store_loop") + 4;  // the swi
  plan.reg = 3;
  plan.mask = 0x40;
  ASSERT_TRUE(faulted.arm_fault(plan).ok);
  EXPECT_EQ(faulted.run(), core::StopReason::kHalted);
  ASSERT_NE(faulted.fault_injector(), nullptr);
  EXPECT_TRUE(faulted.fault_injector()->applied());

  const core::CoSimStats s = faulted.stats();
  EXPECT_EQ(s.cycles, 3358u);
  EXPECT_EQ(s.instructions, 2188u);
  EXPECT_EQ(s.fsl_stall_cycles, 0u);
  EXPECT_EQ(s.hw_cycles_stepped, 2178u);
  EXPECT_EQ(s.hw_cycles_skipped, 1180u);
  EXPECT_EQ(s.bridge.words_to_hw, 252u);
  EXPECT_EQ(s.bridge.words_from_hw, 216u);
  const core::CoSimStats c = clean.stats();
  EXPECT_EQ(s.cycles, c.cycles);
  EXPECT_EQ(s.instructions, c.instructions);
  EXPECT_EQ(s.fsl_stall_cycles, c.fsl_stall_cycles);
  EXPECT_EQ(s.hw_cycles_stepped + s.hw_cycles_skipped,
            c.hw_cycles_stepped + c.hw_cycles_skipped);
  for (u32 i = 0; i < 6; ++i) {
    EXPECT_EQ(faulted.word("results", i),
              clean.word("results", i) ^ (i == 0 ? 0x40u : 0u))
        << "item " << i;
  }
  EXPECT_EQ(faulted.word("results", 0), 0xff18b112u);
}

TEST(Injector, PcTriggerBehindABlockedGetReportsTheDeadlock) {
  // The CORDIC pipeline never gets an input, so the first `get` blocks
  // for good and the trigger PC behind it is never reached: the run is
  // a deadlock, diagnosed and traced once, and the fault never fires.
  apps::register_machine_peripherals();
  machine::MachineDesc desc = machine::MachineDesc::single_core(
      "  get r3, rfsl0\n"
      "never:\n"
      "  addik r3, r3, 1\n"
      "  halt\n");
  machine::PeripheralDesc peripheral;
  peripheral.core = desc.cores.front().name;
  peripheral.type = "cordic";
  peripheral.params["num_pes"] = 2;
  desc.peripherals.push_back(std::move(peripheral));
  std::ostringstream trace;
  sim::SimSystem::Builder builder;
  builder.machine(std::move(desc))
      .deadlock_threshold(1000)
      .sink(std::make_unique<obs::JsonlSink>(trace));
  auto system = build_or_die(builder);
  FaultPlan plan;
  plan.site = FaultSite::kRegister;
  plan.mode = FaultMode::kBitFlip;
  plan.trigger = TriggerKind::kPc;
  plan.trigger_value = system.symbol("never");
  plan.reg = 3;
  plan.mask = 0x40;
  ASSERT_TRUE(system.arm_fault(plan).ok);

  EXPECT_EQ(system.run(), core::StopReason::kDeadlock);
  ASSERT_NE(system.fault_injector(), nullptr);
  EXPECT_FALSE(system.fault_injector()->applied());
  const auto diagnosis = system.deadlock_diagnosis();
  ASSERT_TRUE(diagnosis.has_value());
  EXPECT_EQ(diagnosis->to_string(), 
            "deadlock: blocking get on hw_to_mb0 (fsl 0) at pc 0x00000000, "
            "fifo 0/16, blocked 1000 cycles");
  EXPECT_EQ(system.stats().cycles, 1000u);

  std::istringstream lines(trace.str());
  int deadlock_events = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find(R"("kind":"deadlock")") != std::string::npos) {
      ++deadlock_events;
    }
  }
  EXPECT_EQ(deadlock_events, 1);
}

}  // namespace
}  // namespace mbcosim::fault
