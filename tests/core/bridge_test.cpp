// FslBridge unit tests: gateway driving, pops on read-ack, pushes on
// write, full-flag behaviour, and port validation.
#include "core/fsl_bridge.hpp"

#include <gtest/gtest.h>

#include "sysgen/model.hpp"

namespace mbcosim::core {
namespace {

namespace sg = mbcosim::sysgen;
const FixFormat kWord = FixFormat::signed_fix(32, 0);
const FixFormat kBool = FixFormat::unsigned_fix(1, 0);

/// Minimal loopback hardware: echoes every incoming word back, adding 1.
struct Loopback {
  Loopback()
      : model("loopback"),
        data_in(model.add<sg::GatewayIn>("s.data", kWord)),
        exists_in(model.add<sg::GatewayIn>("s.exists", kBool)),
        control_in(model.add<sg::GatewayIn>("s.control", kBool)),
        read_out(model.add<sg::GatewayOut>("s.read", exists_in.out())),
        one(model.add<sg::Constant>("one", Fix::from_int(kWord, 1))),
        plus_one(model.add<sg::AddSub>("inc", sg::AddSub::Mode::kAdd,
                                       data_in.out(), one.out(), kWord)),
        full_in(model.add<sg::GatewayIn>("m.full", kBool)),
        data_out(model.add<sg::GatewayOut>("m.data", plus_one.out())),
        write_out(model.add<sg::GatewayOut>("m.write", exists_in.out())) {}

  /// Both sides on channel 0.
  FslPort port() {
    return {.channel = 0,
            .s_data = &data_in,
            .s_exists = &exists_in,
            .s_control = &control_in,
            .s_read = &read_out,
            .m_data = &data_out,
            .m_write = &write_out,
            .m_full = &full_in};
  }

  void bind(FslBridge& bridge) { ASSERT_TRUE(bridge.bind(port()).ok); }

  void cycle(FslBridge& bridge) {
    bridge.pre_cycle();
    model.step();
    bridge.post_cycle();
  }

  sg::Model model;
  sg::GatewayIn& data_in;
  sg::GatewayIn& exists_in;
  sg::GatewayIn& control_in;
  sg::GatewayOut& read_out;
  sg::Constant& one;
  sg::AddSub& plus_one;
  sg::GatewayIn& full_in;
  sg::GatewayOut& data_out;
  sg::GatewayOut& write_out;
};

TEST(Bridge, EchoesWordsWithIncrement) {
  fsl::FslHub hub;
  FslBridge bridge(hub);
  Loopback hw;
  hw.bind(bridge);

  hub.to_hw(0).try_write(41, false);
  hw.cycle(bridge);
  auto out = hub.from_hw(0).try_read();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data, 42u);
  EXPECT_FALSE(hub.to_hw(0).exists());  // consumed
}

TEST(Bridge, IdleCycleMovesNothing) {
  fsl::FslHub hub;
  FslBridge bridge(hub);
  Loopback hw;
  hw.bind(bridge);
  hw.cycle(bridge);
  hw.cycle(bridge);
  EXPECT_EQ(bridge.stats().words_to_hw, 0u);
  EXPECT_EQ(bridge.stats().words_from_hw, 0u);
  EXPECT_FALSE(hub.from_hw(0).exists());
}

TEST(Bridge, StatsCountTraffic) {
  fsl::FslHub hub;
  FslBridge bridge(hub);
  Loopback hw;
  hw.bind(bridge);
  for (int i = 0; i < 5; ++i) hub.to_hw(0).try_write(i, false);
  for (int i = 0; i < 5; ++i) hw.cycle(bridge);
  EXPECT_EQ(bridge.stats().words_to_hw, 5u);
  EXPECT_EQ(bridge.stats().words_from_hw, 5u);
  EXPECT_EQ(hub.from_hw(0).occupancy(), 5u);
}

TEST(Bridge, RefusedWritesWhenOutputFull) {
  fsl::FslHub hub(/*depth=*/2);
  FslBridge bridge(hub);
  Loopback hw;  // loopback ignores full (no handshake): words get refused
  hw.bind(bridge);
  // Fill the output FIFO (depth 2) with two echoes...
  for (int i = 0; i < 2; ++i) hub.to_hw(0).try_write(i, false);
  for (int i = 0; i < 2; ++i) hw.cycle(bridge);
  EXPECT_EQ(hub.from_hw(0).occupancy(), 2u);
  // ...then push two more words: their echoes are refused.
  for (int i = 0; i < 2; ++i) hub.to_hw(0).try_write(i + 2, false);
  for (int i = 0; i < 2; ++i) hw.cycle(bridge);
  EXPECT_EQ(hub.from_hw(0).occupancy(), 2u);
  EXPECT_EQ(bridge.stats().refused_writes, 2u);
}

TEST(Bridge, ControlBitForwarded) {
  fsl::FslHub hub;
  FslBridge bridge(hub);
  Loopback hw;
  hw.bind(bridge);
  hub.to_hw(0).try_write(7, true);
  bridge.pre_cycle();
  hw.model.step();
  EXPECT_TRUE(hw.control_in.out().as_bool());
  bridge.post_cycle();
}

TEST(Bridge, BindingValidation) {
  struct Case {
    const char* what;
    FslPort (*edit)(FslPort);  ///< damages a complete channel-0 port
    bool taken;                ///< channel 0 is already bound
    const char* error;
  };
  const Case cases[] = {
      {"out of range",
       [](FslPort port) {
         port.channel = fsl::FslHub::kChannels;
         return port;
       },
       false, "FSL channel 8 is out of range (0..7)"},
      {"bound twice", [](FslPort port) { return port; }, true,
       "FSL channel 0 is bound twice"},
      {"no gateways", [](FslPort) { return FslPort{.channel = 0}; }, false,
       "FSL channel 0 binds no gateways"},
      {"incomplete slave side",
       [](FslPort port) {
         port.s_read = nullptr;
         return port;
       },
       false,
       "the slave side of FSL channel 0 needs the s_data, s_exists and "
       "s_read gateways"},
      {"incomplete master side",
       [](FslPort port) {
         port.m_write = nullptr;
         return port;
       },
       false,
       "the master side of FSL channel 0 needs the m_data and m_write "
       "gateways"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    fsl::FslHub hub;
    FslBridge bridge(hub);
    Loopback rejected;
    Loopback earlier;
    if (c.taken) earlier.bind(bridge);
    const Status status = bridge.bind(c.edit(rejected.port()));
    EXPECT_FALSE(status.ok);
    EXPECT_EQ(status.message, c.error);

    // The rejected port left no side behind: only the earlier port, if
    // any, moves words, and channel 0 is still free without it.
    hub.to_hw(0).try_write(1, false);
    hub.to_hw(0).try_write(2, false);
    bridge.pre_cycle();
    rejected.model.step();
    earlier.model.step();
    bridge.post_cycle();
    const u64 moved = c.taken ? 1 : 0;
    EXPECT_EQ(bridge.stats().words_to_hw, moved);
    EXPECT_EQ(bridge.stats().words_from_hw, moved);
    if (!c.taken) {
      EXPECT_TRUE(bridge.bind(rejected.port()).ok);
    }
  }

  // A port may bind one side only: one loopback split over two channels
  // reads channel 0 and echoes into channel 1.
  fsl::FslHub hub;
  FslBridge bridge(hub);
  Loopback hw;
  FslPort in = hw.port();
  in.m_data = nullptr;
  in.m_write = nullptr;
  in.m_full = nullptr;
  ASSERT_TRUE(bridge.bind(in).ok);
  FslPort out = hw.port();
  out.channel = 1;
  out.s_data = nullptr;
  out.s_exists = nullptr;
  out.s_control = nullptr;
  out.s_read = nullptr;
  ASSERT_TRUE(bridge.bind(out).ok);

  hub.to_hw(0).try_write(41, false);
  hw.cycle(bridge);
  EXPECT_FALSE(hub.to_hw(0).exists());
  EXPECT_FALSE(hub.from_hw(0).exists());
  const auto echoed = hub.from_hw(1).try_read();
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(echoed->data, 42u);
  EXPECT_EQ(bridge.stats().words_to_hw, 1u);
  EXPECT_EQ(bridge.stats().words_from_hw, 1u);
}

}  // namespace
}  // namespace mbcosim::core
