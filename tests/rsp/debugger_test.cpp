// Tests for the machine's debugger (the mb-gdb analog): its stepping
// loop and its textual verbs, over a one-core machine whose
// CoSimEngine has no peripheral — the bare processor.
#include <gtest/gtest.h>

#include "core/cosim_engine.hpp"
#include "core/manycore.hpp"
#include "iss/test_helpers.hpp"
#include "rsp/cosim_target.hpp"

namespace mbcosim::rsp {
namespace {

using iss::testing::TestMachine;

/// A debugger on the bare processor of `source`, a one-core machine.
struct Debugged {
  explicit Debugged(std::string_view source,
                    Cycle stall_threshold = core::kDefaultDeadlockThreshold)
      : m(source), engine(m.cpu, nullptr, m.hub), dbg(machine, 0) {
    machine.set_deadlock_threshold(stall_threshold);
    machine.add_core("cpu", m.cpu, engine, m.hub);
  }

  TestMachine m;
  core::CoSimEngine engine;
  core::ManyCoreEngine machine;
  CoSimTarget dbg;
};

TEST(Debugger, BreakpointStopsExecution) {
  Debugged d(
      "  li r3, 1\n"     // words at 0, 4
      "  li r4, 2\n"     // words at 8, 12
      "  halt\n");
  d.dbg.add_breakpoint(8);
  EXPECT_EQ(d.dbg.resume(~Cycle{0}, false).kind, StopInfo::Kind::kBreakpoint);
  EXPECT_EQ(d.m.cpu.pc(), 8u);
  EXPECT_EQ(d.m.cpu.reg(3), 1u);
  EXPECT_EQ(d.m.cpu.reg(4), 0u);
  d.dbg.remove_breakpoint(8);
  EXPECT_EQ(d.dbg.resume(~Cycle{0}, false).kind, StopInfo::Kind::kHalted);
  EXPECT_EQ(d.m.cpu.reg(4), 2u);
}

TEST(Debugger, CycleLimitStops) {
  Debugged d("loop: bri loop2\nloop2: bri loop\n");
  EXPECT_EQ(d.dbg.resume(30, false).kind, StopInfo::Kind::kBudget);
}

TEST(Debugger, StepOverStallsRetries) {
  Debugged d("get r3, rfsl0\nhalt\n");
  d.m.hub.from_hw(0).try_write(5, false);
  EXPECT_EQ(d.dbg.step_one().kind, StopInfo::Kind::kStep);
  EXPECT_EQ(d.m.cpu.reg(3), 5u);
}

TEST(Debugger, FslStallReportedToCaller) {
  // Nothing ever arrives on fsl 0: the run stops as "stalled" once the
  // core has been blocked for the target's stall threshold.
  Debugged d("get r3, rfsl0\nhalt\n", /*stall_threshold=*/10);
  const StopInfo stop = d.dbg.resume(100, false);
  EXPECT_EQ(stop.kind, StopInfo::Kind::kStalled);
  EXPECT_EQ(stop.blocked_cycles, 10u);
  EXPECT_EQ(d.m.cpu.pc(), 0u);
  EXPECT_EQ(d.dbg.monitor("cont 100"), "stalled");
}

TEST(Debugger, FslStallReportedAcrossBudgets) {
  // The stall streak outlives each resume: resumed in 3-cycle budgets,
  // the core is reported at the same cycle as in one resume.
  Debugged d("get r3, rfsl0\nhalt\n", /*stall_threshold=*/10);
  StopInfo stop;
  for (int resumes = 0; resumes < 100; ++resumes) {
    stop = d.dbg.resume(3, false);
    if (stop.kind != StopInfo::Kind::kBudget) break;
  }
  EXPECT_EQ(stop.kind, StopInfo::Kind::kStalled);
  EXPECT_EQ(stop.blocked_cycles, 10u);
  EXPECT_EQ(d.m.cpu.cycle(), 10u);
}

TEST(DebuggerCommands, RegisterAccess) {
  Debugged d("halt\n");
  EXPECT_EQ(d.dbg.monitor("setreg r5 0x2a"), "ok");
  EXPECT_EQ(d.dbg.monitor("reg r5"), "0x2a");
  EXPECT_EQ(d.dbg.monitor("reg 5"), "0x2a");
  EXPECT_NE(d.dbg.monitor("reg r32").find("error"), std::string::npos);
}

TEST(DebuggerCommands, MemoryAccess) {
  Debugged d("halt\n");
  EXPECT_EQ(d.dbg.monitor("setmem 0x100 0xdeadbeef"), "ok");
  EXPECT_EQ(d.dbg.monitor("mem 0x100"), "0xdeadbeef");
  EXPECT_NE(d.dbg.monitor("mem 0xFFFFFFF0").find("error"), std::string::npos);
}

TEST(DebuggerCommands, StepAndPc) {
  Debugged d("nop\nnop\nhalt\n");
  EXPECT_EQ(d.dbg.monitor("pc"), "0x0");
  EXPECT_EQ(d.dbg.monitor("step"), "stopped pc=0x4");
  EXPECT_EQ(d.dbg.monitor("cycles"), "1");
}

TEST(DebuggerCommands, ContinueToHalt) {
  Debugged d("li r3, 9\nhalt\n");
  EXPECT_EQ(d.dbg.monitor("cont"), "halted");
  EXPECT_EQ(d.dbg.monitor("reg r3"), "0x9");
}

TEST(DebuggerCommands, BreakpointViaCommands) {
  Debugged d("nop\nnop\nhalt\n");
  EXPECT_EQ(d.dbg.monitor("break 0x4"), "ok");
  EXPECT_EQ(d.dbg.monitor("cont"), "breakpoint pc=0x4");
  EXPECT_EQ(d.dbg.monitor("delete 0x4"), "ok");
  EXPECT_EQ(d.dbg.monitor("cont"), "halted");
}

TEST(DebuggerCommands, Disassemble) {
  Debugged d("add r1, r2, r3\nhalt\n");
  EXPECT_EQ(d.dbg.monitor("disasm"), "add r1, r2, r3");
}

TEST(DebuggerCommands, UnknownCommand) {
  Debugged d("halt\n");
  EXPECT_EQ(d.dbg.monitor("launch missiles"),
            "error: unknown command 'launch'");
  EXPECT_NE(d.dbg.monitor("").find("error"), std::string::npos);
}

TEST(DebuggerCommands, TrailingGarbageRejected) {
  Debugged d("halt\n");
  // A typo that silently dropped its tail could read/write the wrong
  // location; every verb takes an exact argument count.
  EXPECT_NE(d.dbg.monitor("reg r3 junk").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("setreg r3 1 2").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("mem 0x100 0x104").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("setmem 0x100 1 2").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("cycles now").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("pc please").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("msr 0").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("step 2").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("cont 10 20").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("break 0x4 0x8").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("disasm 0x0").find("error"), std::string::npos);
  // Nothing above executed or mutated state.
  EXPECT_EQ(d.dbg.monitor("cycles"), "0");
  EXPECT_EQ(d.dbg.monitor("pc"), "0x0");
}

TEST(DebuggerCommands, NumericParsingRejectsGarbage) {
  Debugged d("halt\n");
  EXPECT_NE(d.dbg.monitor("reg r3x").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("mem 0x10q").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("setreg r3 12junk").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("cont ten").find("error"), std::string::npos);
  EXPECT_NE(d.dbg.monitor("break 0x").find("error"), std::string::npos);
}

TEST(DebuggerCommands, MsrQuery) {
  Debugged d(
      "  li r3, 0xFFFFFFFF\n"
      "  li r4, 1\n"
      "  add r5, r3, r4\n"
      "  halt\n");
  d.dbg.monitor("cont");
  EXPECT_EQ(d.dbg.monitor("msr"), "0x1");  // carry set
}

}  // namespace
}  // namespace mbcosim::rsp
