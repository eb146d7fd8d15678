// End-to-end remote-debug test over a real TCP socket: a scripted RSP
// client attaches to SimSystem::serve_gdb, sets a breakpoint in the
// CORDIC hardware-driver program, continues into it with the hardware
// model in lock-step, reads and writes a register, and resumes to the
// halt — and the engine statistics match an undebugged free run bit for
// bit. Runs under the `rsp_tcp` ctest label (excluded from tier-1's
// socket-free default set).
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "apps/cordic/cordic_app.hpp"
#include "rsp/packet.hpp"
#include "rsp/transport.hpp"
#include "rsp_test_client.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::rsp {
namespace {

using testclient::RspTestClient;

constexpr int kClientTimeoutMs = 30'000;

/// A builder for the one-core machine running `source`.
sim::SimSystem::Builder one_core(std::string source) {
  sim::SimSystem::Builder builder;
  builder.machine(machine::MachineDesc::single_core(std::move(source)));
  return builder;
}

TEST(RspTcpE2E, AttachBreakResumeWithStatsParity) {
  apps::cordic::CordicRunConfig config;
  config.num_pes = 2;
  config.iterations = 24;
  config.items = 6;
  config.set_size = 2;
  const auto [x, y] = apps::cordic::make_cordic_dataset(config.items, 0x7C9);

  auto debugged_built = apps::cordic::make_cordic_system(config, x, y);
  ASSERT_TRUE(debugged_built.ok()) << debugged_built.error();
  sim::SimSystem debugged = std::move(debugged_built).value();
  auto free_built = apps::cordic::make_cordic_system(config, x, y);
  ASSERT_TRUE(free_built.ok()) << free_built.error();
  sim::SimSystem free_run = std::move(free_built).value();

  const Addr bp = debugged.symbol("store_loop");

  // Serve on an ephemeral port; on_listen resolves once the socket is
  // bound and listening, so the client thread cannot race the accept.
  std::promise<u16> port_promise;
  std::future<u16> port_future = port_promise.get_future();
  std::thread server_thread([&] {
    auto end = debugged.serve_gdb(
        0, [&](u16 port) { port_promise.set_value(port); });
    ASSERT_TRUE(end.ok()) << end.error();
    EXPECT_EQ(end.value(), SessionEnd::kDetached);
  });

  const u16 port = port_future.get();
  std::unique_ptr<Transport> wire = tcp_connect("127.0.0.1", port);
  ASSERT_NE(wire, nullptr);
  RspTestClient client(*wire, /*pump=*/{}, kClientTimeoutMs);

  // Attach and handshake.
  const auto supported = client.transact("qSupported:swbreak+");
  ASSERT_TRUE(supported.has_value());
  EXPECT_NE(supported->find("PacketSize="), std::string::npos);
  EXPECT_EQ(client.transact("?"), "S05");

  // Breakpoint in the driver's store loop; continue runs the full co-sim.
  char addr_hex[16];
  std::snprintf(addr_hex, sizeof addr_hex, "%x", static_cast<unsigned>(bp));
  EXPECT_EQ(client.transact(std::string("Z0,") + addr_hex + ",4"), "OK");
  EXPECT_EQ(client.transact("c"), "S05");

  // Stopped exactly at the breakpoint, mid-run.
  EXPECT_EQ(client.transact("p20"), hex_word(bp));  // reg 0x20 = PC
  const auto mid_cycles = client.monitor("cycles");
  ASSERT_TRUE(mid_cycles.has_value());
  EXPECT_NE(*mid_cycles, "0\n");

  // Register read + write + restore over the wire (r18 is live).
  const auto r18_hex = client.transact("p12");
  ASSERT_TRUE(r18_hex.has_value());
  EXPECT_EQ(client.transact("P12=" + hex_word(0xa5a5)), "OK");
  EXPECT_EQ(client.transact("p12"), hex_word(0xa5a5));
  EXPECT_EQ(client.transact("P12=" + *r18_hex), "OK");

  // The co-sim `stats` monitor verb is served through qRcmd.
  const auto stats_text = client.monitor("stats");
  ASSERT_TRUE(stats_text.has_value());
  EXPECT_NE(stats_text->find("cycles "), std::string::npos);

  // Checkpoint + restore at the breakpoint stop, over the wire. The
  // restore rewinds to the state we just saved (a no-op here), so the
  // stats-parity assertion below also covers the round trip.
  const std::string ckpt_path = ::testing::TempDir() + "rsp_e2e.ckpt";
  const auto saved = client.monitor("checkpoint " + ckpt_path);
  ASSERT_TRUE(saved.has_value());
  EXPECT_NE(saved->find("saved to"), std::string::npos) << *saved;
  const auto restored = client.monitor("restore " + ckpt_path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_NE(restored->find("restored from"), std::string::npos) << *restored;

  // Resume to the program end and detach.
  EXPECT_EQ(client.transact(std::string("z0,") + addr_hex + ",4"), "OK");
  EXPECT_EQ(client.transact("c"), "W00");
  EXPECT_EQ(client.transact("D"), "OK");
  server_thread.join();
  wire.reset();

  // Cycle-consistency: the debugged run's engine statistics equal a free
  // run's — the stop/resume sequence did not perturb the co-simulation.
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

TEST(RspTcpE2E, SecondClientGetsStructuredBusyError) {
  auto built = one_core("loop: bri loop2\nloop2: bri loop\n")
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  sim::SimSystem system = std::move(built).value();

  std::promise<u16> port_promise;
  std::future<u16> port_future = port_promise.get_future();
  std::thread server_thread([&] {
    auto end = system.serve_gdb(
        0, [&](u16 port) { port_promise.set_value(port); });
    ASSERT_TRUE(end.ok()) << end.error();
    EXPECT_EQ(end.value(), SessionEnd::kKilled);
  });

  const u16 port = port_future.get();
  std::unique_ptr<Transport> first = tcp_connect("127.0.0.1", port);
  ASSERT_NE(first, nullptr);
  RspTestClient client(*first, /*pump=*/{}, kClientTimeoutMs);
  EXPECT_EQ(client.transact("?"), "S05");  // the session is established

  // A second debugger connects while the first holds the session: it
  // must be turned away with a framed structured error, not left
  // hanging and not given the target.
  std::unique_ptr<Transport> second = tcp_connect("127.0.0.1", port);
  ASSERT_NE(second, nullptr);
  std::string rejection;
  for (int i = 0; i < kClientTimeoutMs / 50 && !second->closed(); ++i) {
    rejection += second->recv(50);
    if (rejection.find('#') != std::string::npos) break;  // full frame
  }
  EXPECT_NE(rejection.find("$E.srv-busy"), std::string::npos) << rejection;

  // The first client is unaffected and can end the session normally.
  EXPECT_EQ(client.transact("?"), "S05");
  client.send_packet("k");
  server_thread.join();
}

TEST(RspTcpE2E, InterruptOverTcp) {
  // A program that never halts: the raw \x03 byte must break it out.
  auto built = one_core("loop: bri loop2\nloop2: bri loop\n")
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  sim::SimSystem system = std::move(built).value();

  std::promise<u16> port_promise;
  std::future<u16> port_future = port_promise.get_future();
  std::thread server_thread([&] {
    auto end = system.serve_gdb(
        0, [&](u16 port) { port_promise.set_value(port); });
    ASSERT_TRUE(end.ok()) << end.error();
    EXPECT_EQ(end.value(), SessionEnd::kKilled);
  });

  const u16 port = port_future.get();
  std::unique_ptr<Transport> wire = tcp_connect("127.0.0.1", port);
  ASSERT_NE(wire, nullptr);
  RspTestClient client(*wire, /*pump=*/{}, kClientTimeoutMs);

  EXPECT_EQ(client.transact("?"), "S05");
  client.send_raw(frame_packet("c"));
  // Wait for the ack, then interrupt the running target.
  auto ack = client.next_event();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->kind, DecoderEvent::Kind::kAck);
  client.send_raw("\x03");
  auto stop = client.next_event();
  ASSERT_TRUE(stop.has_value());
  ASSERT_EQ(stop->kind, DecoderEvent::Kind::kPacket);
  EXPECT_EQ(stop->payload, "S02");
  client.send_raw("+");

  client.send_packet("k");
  server_thread.join();
}

}  // namespace
}  // namespace mbcosim::rsp
