// Full RSP protocol sessions over the in-memory loopback transport —
// deterministic by construction: no sockets, no threads, no sleeps. The
// scripted client sends bytes, RspServer::pump() processes exactly what
// is queued, and every reply is asserted byte-for-byte.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cordic/cordic_app.hpp"
#include "apps/machine_peripherals.hpp"
#include "iss/test_helpers.hpp"
#include "machine/machine_desc.hpp"
#include "rsp/cosim_target.hpp"
#include "rsp/server.hpp"
#include "rsp/transport.hpp"
#include "rsp_test_client.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::rsp {
namespace {

using iss::testing::TestMachine;
using testclient::RspTestClient;

/// One loopback session over a bare-ISS TestMachine, debugged as a
/// one-core machine.
struct LoopbackSession {
  explicit LoopbackSession(TestMachine& machine,
                           RspServer::Options options = RspServer::Options{})
      : engine(machine.cpu, nullptr, machine.hub), target(cores, 0) {
    cores.add_core("cpu", machine.cpu, engine, machine.hub);
    auto [server_side, client_side] = make_loopback();
    server_transport = std::move(server_side);
    client_transport = std::move(client_side);
    server.emplace(*server_transport, target, options);
    client.emplace(*client_transport, [this] { server->pump(); });
  }

  core::CoSimEngine engine;  ///< no peripheral: the bare processor
  core::ManyCoreEngine cores;
  CoSimTarget target;
  std::unique_ptr<Transport> server_transport;
  std::unique_ptr<Transport> client_transport;
  std::optional<RspServer> server;
  std::optional<RspTestClient> client;
};

TEST(RspSession, HandshakeQueries) {
  TestMachine m("  halt\n");
  LoopbackSession s(m);
  const auto supported = s.client->transact("qSupported:multiprocess+");
  ASSERT_TRUE(supported.has_value());
  EXPECT_NE(supported->find("PacketSize="), std::string::npos);
  EXPECT_NE(supported->find("vContSupported+"), std::string::npos);
  EXPECT_EQ(s.client->transact("?"), "S05");
  EXPECT_EQ(s.client->transact("vCont?"), "vCont;c;C;s;S");
  EXPECT_EQ(s.client->transact("qAttached"), "1");
  EXPECT_EQ(s.client->transact("Hg0"), "OK");
  // Unsupported packets get the standard empty reply.
  EXPECT_EQ(s.client->transact("qXfer:features:read::0,fff"), "");
  EXPECT_FALSE(s.server->ended());
}

TEST(RspSession, BreakpointContinueRegistersAndDetach) {
  TestMachine m(
      "  li r3, 1\n"  // words at 0, 4
      "  li r4, 2\n"  // words at 8, 12
      "  halt\n");
  LoopbackSession s(m);

  EXPECT_EQ(s.client->transact("Z0,8,4"), "OK");
  EXPECT_EQ(s.client->transact("c"), "S05");
  EXPECT_EQ(m.cpu.pc(), 8u);
  EXPECT_EQ(m.cpu.reg(3), 1u);

  // p: r3 and the PC pseudo-register, little-endian 8 hex digits.
  EXPECT_EQ(s.client->transact("p3"), hex_word(1));
  EXPECT_EQ(s.client->transact("p20"), hex_word(8));  // reg 0x20 = PC
  EXPECT_EQ(s.client->transact("p22"), "E01");        // out of the file

  // g: all 34 registers concatenated.
  const auto regs = s.client->transact("g");
  ASSERT_TRUE(regs.has_value());
  ASSERT_EQ(regs->size(), kNumRegs * 8);
  EXPECT_EQ(regs->substr(3 * 8, 8), hex_word(1));            // r3
  EXPECT_EQ(regs->substr(kRegPc * 8, 8), hex_word(8));       // PC
  // G: write the same file back, bumping r5.
  std::string file = *regs;
  file.replace(5 * 8, 8, hex_word(0x1234));
  EXPECT_EQ(s.client->transact("G" + file), "OK");
  EXPECT_EQ(m.cpu.reg(5), 0x1234u);

  // P: single register write.
  EXPECT_EQ(s.client->transact("P6=" + hex_word(0xcafe)), "OK");
  EXPECT_EQ(m.cpu.reg(6), 0xcafeu);

  // m/M: read the first program word, write a data word.
  const auto word0 = s.client->transact("m0,4");
  ASSERT_TRUE(word0.has_value());
  EXPECT_EQ(word0->size(), 8u);
  EXPECT_EQ(s.client->transact("M100,4:deadbeef"), "OK");
  EXPECT_EQ(s.client->transact("m100,4"), "deadbeef");
  EXPECT_EQ(s.client->transact("mfffffff0,4"), "E01");  // out of range

  // Clear the breakpoint and run to the halt.
  EXPECT_EQ(s.client->transact("z0,8,4"), "OK");
  EXPECT_EQ(s.client->transact("c"), "W00");
  EXPECT_EQ(m.cpu.reg(4), 2u);
  EXPECT_EQ(s.client->transact("?"), "W00");

  EXPECT_EQ(s.client->transact("D"), "OK");
  ASSERT_TRUE(s.server->ended());
  EXPECT_EQ(s.server->end(), SessionEnd::kDetached);
}

TEST(RspSession, StepAndMonitorCommands) {
  TestMachine m(
      "  li r3, 7\n"
      "  halt\n");
  LoopbackSession s(m);

  EXPECT_EQ(s.client->transact("s"), "S05");
  EXPECT_GT(m.cpu.cycle(), 0u);
  const auto cycles_text = s.client->monitor("cycles");
  ASSERT_TRUE(cycles_text.has_value());
  // monitor replies are newline-terminated text.
  EXPECT_EQ(*cycles_text, std::to_string(m.cpu.cycle()) + "\n");

  const auto disasm = s.client->monitor("disasm");
  ASSERT_TRUE(disasm.has_value());
  EXPECT_EQ(disasm->find("error"), std::string::npos);

  const auto unknown = s.client->monitor("frobnicate");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_NE(unknown->find("error: unknown command 'frobnicate'"),
            std::string::npos);

  // vCont;s is the modern spelling of `s`.
  EXPECT_EQ(s.client->transact("vCont;s:1"), "S05");
}

TEST(RspSession, InterruptStopsContinue) {
  TestMachine m("loop: bri loop2\nloop2: bri loop\n");
  RspServer::Options options;
  options.resume_quantum = 500;  // poll for the interrupt every 500 cycles
  LoopbackSession s(m, options);

  // Queue the continue AND the raw 0x03 before the server runs: the
  // resume loop finds the interrupt at its first quantum boundary.
  s.client->send_raw(frame_packet("c"));
  s.client->send_raw("\x03");
  s.server->pump();

  auto ack = s.client->next_event();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->kind, DecoderEvent::Kind::kAck);
  auto stop = s.client->next_event();
  ASSERT_TRUE(stop.has_value());
  ASSERT_EQ(stop->kind, DecoderEvent::Kind::kPacket);
  EXPECT_EQ(stop->payload, "S02");
  EXPECT_FALSE(m.cpu.halted());
  EXPECT_GE(m.cpu.cycle(), 500u);
}

TEST(RspSession, KillEndsSessionWithoutReply) {
  TestMachine m("  halt\n");
  LoopbackSession s(m);
  s.client->send_packet("k");
  ASSERT_TRUE(s.server->ended());
  EXPECT_EQ(s.server->end(), SessionEnd::kKilled);
  // Only the ack arrives; `k` itself has no reply.
  auto ack = s.client->next_event();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->kind, DecoderEvent::Kind::kAck);
  EXPECT_FALSE(s.client->next_event().has_value());
}

TEST(RspSession, NakTriggersRetransmit) {
  TestMachine m("  halt\n");
  LoopbackSession s(m);
  s.client->send_raw(frame_packet("?"));
  s.server->pump();
  auto ack = s.client->next_event();
  ASSERT_TRUE(ack.has_value());
  auto first = s.client->next_event();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload, "S05");
  // NAK instead of ack: the server must resend the identical frame.
  s.client->send_raw("-");
  s.server->pump();
  auto second = s.client->next_event();
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->kind, DecoderEvent::Kind::kPacket);
  EXPECT_EQ(second->payload, "S05");
}

TEST(RspSession, BadChecksumGetsNak) {
  TestMachine m("  halt\n");
  LoopbackSession s(m);
  s.client->send_raw("$?#00");  // wrong checksum
  s.server->pump();
  auto nak = s.client->next_event();
  ASSERT_TRUE(nak.has_value());
  EXPECT_EQ(nak->kind, DecoderEvent::Kind::kNak);
  // Session still healthy afterwards.
  EXPECT_EQ(s.client->transact("?"), "S05");
}

TEST(RspSession, DisconnectEndsSession) {
  TestMachine m("  halt\n");
  LoopbackSession s(m);
  EXPECT_EQ(s.client->transact("?"), "S05");
  s.client_transport.reset();  // client hangs up
  EXPECT_FALSE(s.server->pump());
  ASSERT_TRUE(s.server->ended());
  EXPECT_EQ(s.server->end(), SessionEnd::kDisconnected);
}

/// The full co-simulated system behind the protocol: set a breakpoint in
/// the CORDIC hardware-driver program, continue to it, advance with the
/// `monitor cont` and `monitor step` verbs, then run to the halt — and
/// the engine statistics must be identical to an undebugged free run of
/// an identically-built system, cycle for cycle.
TEST(RspSession, CoSimBreakpointKeepsStatsParity) {
  apps::cordic::CordicRunConfig config;
  config.num_pes = 2;
  config.iterations = 24;
  config.items = 6;
  config.set_size = 2;
  const auto [x, y] = apps::cordic::make_cordic_dataset(config.items, 0x5E55);

  auto debugged_built = apps::cordic::make_cordic_system(config, x, y);
  ASSERT_TRUE(debugged_built.ok()) << debugged_built.error();
  sim::SimSystem debugged = std::move(debugged_built).value();
  auto free_built = apps::cordic::make_cordic_system(config, x, y);
  ASSERT_TRUE(free_built.ok()) << free_built.error();
  sim::SimSystem free_run = std::move(free_built).value();

  CoSimTarget target(*debugged.machine_engine(), 0);
  auto [server_side, client_side] = make_loopback();
  RspServer server(*server_side, target);
  RspTestClient client(*client_side, [&server] { server.pump(); });

  const Addr bp = debugged.symbol("store_loop");
  char addr_hex[16];
  std::snprintf(addr_hex, sizeof addr_hex, "%x", static_cast<unsigned>(bp));
  EXPECT_EQ(client.transact(std::string("Z0,") + addr_hex + ",4"), "OK");
  EXPECT_EQ(client.transact("c"), "S05");
  EXPECT_EQ(debugged.cpu().pc(), bp);

  // Mid-run: some cycles burned, program not done.
  const auto mid_cycles = client.monitor("cycles");
  ASSERT_TRUE(mid_cycles.has_value());
  const Cycle stop_cycle = debugged.cpu().cycle();
  EXPECT_GT(stop_cycle, 0u);
  EXPECT_EQ(*mid_cycles, std::to_string(stop_cycle) + "\n");

  // Register write + read-back through the wire, restoring the original
  // value afterwards so the poke cannot perturb the program (r18 is live
  // in the driver loop).
  const Word saved = debugged.cpu().reg(18);
  EXPECT_EQ(client.transact("P12=" + hex_word(0x5a5a)), "OK");
  EXPECT_EQ(client.transact("p12"), hex_word(0x5a5a));
  EXPECT_EQ(client.transact("P12=" + hex_word(saved)), "OK");
  EXPECT_EQ(debugged.cpu().reg(18), saved);

  EXPECT_EQ(client.transact(std::string("z0,") + addr_hex + ",4"), "OK");
  // The monitor verbs advance the hardware with the processor, too.
  EXPECT_EQ(client.monitor("cont 200"), "cycle-limit\n");
  EXPECT_GE(debugged.cpu().cycle(), stop_cycle + 200);
  const auto stepped = client.monitor("step");
  ASSERT_TRUE(stepped.has_value());
  EXPECT_EQ(stepped->rfind("stopped pc=", 0), 0u) << *stepped;
  const core::CoSimStats mid = debugged.stats();
  EXPECT_EQ(mid.hw_cycles_stepped + mid.hw_cycles_skipped, mid.cycles);

  EXPECT_EQ(client.transact("c"), "W00");
  EXPECT_GT(debugged.cpu().cycle(), stop_cycle);

  ASSERT_EQ(free_run.run(), core::StopReason::kHalted);

  const core::CoSimStats a = debugged.stats();
  const core::CoSimStats b = free_run.stats();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.fsl_stall_cycles, b.fsl_stall_cycles);
  EXPECT_EQ(a.hw_cycles_stepped + a.hw_cycles_skipped,
            b.hw_cycles_stepped + b.hw_cycles_skipped);
  EXPECT_EQ(a.bridge.words_to_hw, b.bridge.words_to_hw);
  EXPECT_EQ(a.bridge.words_from_hw, b.bridge.words_from_hw);
}

/// The CORDIC farm machine behind SimSystem::serve_gdb_on: `monitor
/// step` on the focused core advances every core, so at the detach each
/// core stands where a free run of the machine to the same cycle leaves
/// it, hardware included.
TEST(RspSession, MachineMonitorStepKeepsEveryCoreAtParity) {
  apps::register_machine_peripherals();
  const auto desc = machine::MachineDesc::from_file(
      std::string(MBCOSIM_EXAMPLES_DIR) + "/machines/cordic_farm.json");
  ASSERT_TRUE(desc.ok()) << desc.error();
  auto debugged_built = sim::SimSystem::Builder().machine(desc.value()).build();
  ASSERT_TRUE(debugged_built.ok()) << debugged_built.error();
  sim::SimSystem debugged = std::move(debugged_built).value();
  auto free_built = sim::SimSystem::Builder().machine(desc.value()).build();
  ASSERT_TRUE(free_built.ok()) << free_built.error();
  sim::SimSystem free_run = std::move(free_built).value();

  // Queue the whole session up front: serve_gdb_on handles it on this
  // thread and returns at the detach.
  auto [server_side, client_side] = make_loopback();
  for (const char* command : {"step", "step", "step", "stats"}) {
    client_side->send(frame_packet("qRcmd," + to_hex(command)));
  }
  client_side->send(frame_packet("D"));
  const Expected<SessionEnd> end = debugged.serve_gdb_on(*server_side);
  ASSERT_TRUE(end.ok()) << end.error();
  EXPECT_EQ(end.value(), SessionEnd::kDetached);

  RspTestClient client(*client_side);
  std::vector<std::string> replies;
  while (std::optional<DecoderEvent> event = client.next_event()) {
    if (event->kind != DecoderEvent::Kind::kPacket) continue;
    const Expected<std::string> text = from_hex(event->payload);
    replies.push_back(text.ok() ? text.value() : event->payload);
  }
  ASSERT_EQ(replies.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(replies[i].rfind("stopped pc=", 0), 0u) << replies[i];
  }
  EXPECT_EQ(replies[3], sim::stats_text(debugged));
  EXPECT_NE(replies[3].find("\ncore.collector.cycles "), std::string::npos);
  EXPECT_EQ(replies[4], "OK");

  const Cycle stop_cycle = debugged.core_stats(0).cycles;
  ASSERT_GT(stop_cycle, 0u);
  ASSERT_EQ(free_run.run(stop_cycle), core::StopReason::kCycleLimit);
  for (std::size_t i = 0; i < debugged.core_count(); ++i) {
    const core::CoSimStats a = debugged.core_stats(i);
    const core::CoSimStats b = free_run.core_stats(i);
    const std::string& name = debugged.core_name(i);
    EXPECT_GE(a.cycles, stop_cycle) << name;
    EXPECT_EQ(a.cycles, b.cycles) << name;
    EXPECT_EQ(a.instructions, b.instructions) << name;
    EXPECT_EQ(a.fsl_stall_cycles, b.fsl_stall_cycles) << name;
    EXPECT_EQ(a.hw_cycles_stepped + a.hw_cycles_skipped, a.cycles) << name;
    EXPECT_EQ(a.hw_cycles_stepped + a.hw_cycles_skipped,
              b.hw_cycles_stepped + b.hw_cycles_skipped)
        << name;
    EXPECT_EQ(a.bridge.words_to_hw, b.bridge.words_to_hw) << name;
    EXPECT_EQ(a.bridge.words_from_hw, b.bridge.words_from_hw) << name;
  }
  EXPECT_EQ(debugged.machine_engine()->link_words(),
            free_run.machine_engine()->link_words());
}

}  // namespace
}  // namespace mbcosim::rsp
