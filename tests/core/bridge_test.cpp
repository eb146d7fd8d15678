// FslBridge unit tests: gateway driving, pops on read-ack, pushes on
// write, full-flag behaviour, and port validation. The bridge runs in the
// sysgen tape, so every cycle here is one CoSimEngine::tick_hardware.
#include "core/fsl_bridge.hpp"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/ckpt.hpp"
#include "core/cosim_engine.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::core {
namespace {

namespace sg = mbcosim::sysgen;
const FixFormat kWord = FixFormat::signed_fix(32, 0);
const FixFormat kBool = FixFormat::unsigned_fix(1, 0);

/// Minimal loopback hardware: echoes every incoming word back, adding 1.
/// Its blocks are named "<prefix>..." in `model`.
struct Loopback {
  explicit Loopback(sg::Model& m, const std::string& prefix = "")
      : data_in(m.add<sg::GatewayIn>(prefix + "s.data", kWord)),
        exists_in(m.add<sg::GatewayIn>(prefix + "s.exists", kBool)),
        control_in(m.add<sg::GatewayIn>(prefix + "s.control", kBool)),
        read_out(m.add<sg::GatewayOut>(prefix + "s.read", exists_in.out())),
        one(m.add<sg::Constant>(prefix + "one", Fix::from_int(kWord, 1))),
        plus_one(m.add<sg::AddSub>(prefix + "inc", sg::AddSub::Mode::kAdd,
                                   data_in.out(), one.out(), kWord)),
        full_in(m.add<sg::GatewayIn>(prefix + "m.full", kBool)),
        data_out(m.add<sg::GatewayOut>(prefix + "m.data", plus_one.out())),
        write_out(m.add<sg::GatewayOut>(prefix + "m.write", exists_in.out())) {}

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

/// A processor-less engine around one model: the hub, the bridge and
/// tick_hardware.
struct Rig {
  explicit Rig(std::size_t depth = fsl::FslChannel::kDefaultDepth)
      : hub(depth),
        memory(4 * 1024),
        cpu(isa::CpuConfig{}, memory, &hub),
        model("loopback"),
        engine(cpu, &model, hub) {}

  FslBridge& bridge() { return engine.bridge(); }
  void cycle() { engine.tick_hardware(1); }

  fsl::FslHub hub;
  iss::LmbMemory memory;
  iss::Processor cpu;
  sg::Model model;
  CoSimEngine engine;
};

/// A rig with one loopback bound on channel 0.
struct LoopbackRig : Rig {
  explicit LoopbackRig(std::size_t depth = fsl::FslChannel::kDefaultDepth)
      : Rig(depth), hw(model) {
    EXPECT_TRUE(bridge().bind(hw.port()).ok);
  }
  Loopback hw;
};

TEST(Bridge, EchoesWordsWithIncrement) {
  LoopbackRig rig;
  rig.hub.to_hw(0).try_write(41, false);
  rig.cycle();
  auto out = rig.hub.from_hw(0).try_read();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data, 42u);
  EXPECT_FALSE(rig.hub.to_hw(0).exists());  // consumed
}

TEST(Bridge, IdleCycleMovesNothing) {
  LoopbackRig rig;
  rig.cycle();
  rig.cycle();
  EXPECT_EQ(rig.bridge().stats().words_to_hw, 0u);
  EXPECT_EQ(rig.bridge().stats().words_from_hw, 0u);
  EXPECT_FALSE(rig.hub.from_hw(0).exists());
}

TEST(Bridge, StatsCountTraffic) {
  LoopbackRig rig;
  for (int i = 0; i < 5; ++i) rig.hub.to_hw(0).try_write(i, false);
  // One call: the kernel presents each new head after its pop.
  rig.engine.tick_hardware(5);
  EXPECT_EQ(rig.bridge().stats().words_to_hw, 5u);
  EXPECT_EQ(rig.bridge().stats().words_from_hw, 5u);
  EXPECT_EQ(rig.hub.from_hw(0).occupancy(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rig.hub.from_hw(0).try_read()->data, static_cast<Word>(i + 1));
  }
}

TEST(Bridge, RefusedWritesWhenOutputFull) {
  LoopbackRig rig(/*depth=*/2);  // loopback ignores full: words get refused
  // Fill the output FIFO (depth 2) with two echoes...
  for (int i = 0; i < 2; ++i) rig.hub.to_hw(0).try_write(i, false);
  for (int i = 0; i < 2; ++i) rig.cycle();
  EXPECT_EQ(rig.hub.from_hw(0).occupancy(), 2u);
  EXPECT_FALSE(rig.hw.full_in.out().as_bool());
  // ...then push two more words: their echoes are refused.
  for (int i = 0; i < 2; ++i) rig.hub.to_hw(0).try_write(i + 2, false);
  for (int i = 0; i < 2; ++i) rig.cycle();
  EXPECT_EQ(rig.hub.from_hw(0).occupancy(), 2u);
  EXPECT_EQ(rig.bridge().stats().refused_writes, 2u);
  EXPECT_TRUE(rig.hw.full_in.out().as_bool());  // FSL_M_Full presented
}

TEST(Bridge, ControlBitForwarded) {
  LoopbackRig rig;
  rig.hub.to_hw(0).try_write(7, true);
  rig.cycle();
  EXPECT_TRUE(rig.hw.control_in.out().as_bool());
  EXPECT_EQ(rig.bridge().stats().words_to_hw, 1u);
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
    // Both loopbacks in the one model the engine ticks.
    Rig rig;
    Loopback rejected(rig.model, "rejected.");
    Loopback earlier(rig.model, "earlier.");
    if (c.taken) {
      ASSERT_TRUE(rig.bridge().bind(earlier.port()).ok);
    }
    const Status status = rig.bridge().bind(c.edit(rejected.port()));
    EXPECT_FALSE(status.ok);
    EXPECT_EQ(status.message, c.error);

    // The rejected port left no side behind: only the earlier port, if
    // any, moves words, and channel 0 is still free without it.
    const std::size_t sides = c.taken ? 1 : 0;
    EXPECT_EQ(rig.bridge().ports().pops.size(), sides);
    EXPECT_EQ(rig.bridge().ports().pushes.size(), sides);
    rig.hub.to_hw(0).try_write(1, false);
    rig.hub.to_hw(0).try_write(2, false);
    rig.cycle();
    const u64 moved = c.taken ? 1 : 0;
    EXPECT_EQ(rig.bridge().stats().words_to_hw, moved);
    EXPECT_EQ(rig.bridge().stats().words_from_hw, moved);
    if (!c.taken) {
      EXPECT_TRUE(rig.bridge().bind(rejected.port()).ok);
    }
  }

  // A port may bind one side only: one loopback split over two channels
  // reads channel 0 and echoes into channel 1.
  Rig rig;
  Loopback hw(rig.model);
  FslPort in = hw.port();
  in.m_data = nullptr;
  in.m_write = nullptr;
  in.m_full = nullptr;
  ASSERT_TRUE(rig.bridge().bind(in).ok);
  FslPort out = hw.port();
  out.channel = 1;
  out.s_data = nullptr;
  out.s_exists = nullptr;
  out.s_control = nullptr;
  out.s_read = nullptr;
  ASSERT_TRUE(rig.bridge().bind(out).ok);

  rig.hub.to_hw(0).try_write(41, false);
  rig.cycle();
  EXPECT_FALSE(rig.hub.to_hw(0).exists());
  EXPECT_FALSE(rig.hub.from_hw(0).exists());
  const auto echoed = rig.hub.from_hw(1).try_read();
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(echoed->data, 42u);
  EXPECT_EQ(rig.bridge().stats().words_to_hw, 1u);
  EXPECT_EQ(rig.bridge().stats().words_from_hw, 1u);
}

/// Hardware that only watches channel 0: it never reads or writes, so its
/// gateways hold exactly what the bridge last presented.
struct Watcher {
  explicit Watcher(sg::Model& m)
      : data_in(m.add<sg::GatewayIn>("s.data", kWord)),
        exists_in(m.add<sg::GatewayIn>("s.exists", kBool)),
        control_in(m.add<sg::GatewayIn>("s.control", kBool)),
        zero(m.add<sg::Constant>("zero", Fix::from_int(kBool, 0))),
        read_out(m.add<sg::GatewayOut>("s.read", zero.out())),
        full_in(m.add<sg::GatewayIn>("m.full", kBool)),
        data_out(m.add<sg::GatewayOut>("m.data", data_in.out())),
        write_out(m.add<sg::GatewayOut>("m.write", zero.out())) {}

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
  [[nodiscard]] bool exists() const { return exists_in.out().as_bool(); }
  [[nodiscard]] i64 data() const { return data_in.out().raw(); }
  [[nodiscard]] bool control() const { return control_in.out().as_bool(); }
  [[nodiscard]] bool full() const { return full_in.out().as_bool(); }

  sg::GatewayIn& data_in;
  sg::GatewayIn& exists_in;
  sg::GatewayIn& control_in;
  sg::Constant& zero;
  sg::GatewayOut& read_out;
  sg::GatewayIn& full_in;
  sg::GatewayOut& data_out;
  sg::GatewayOut& write_out;
};

struct WatcherRig : Rig {
  WatcherRig() : hw(model) { EXPECT_TRUE(bridge().bind(hw.port()).ok); }
  Watcher hw;
};

// The bridge rewrites a port's gateways only when its FIFO changed since
// it last presented them (fsl::FslChannel::changes()). The changes below
// are neither a push nor a pop, and each must still reach the gateways on
// the next tick.

TEST(Bridge, StuckFlagsArmedAndClearedBetweenTicksArePresented) {
  WatcherRig rig;
  rig.hub.to_hw(0).try_write(5, false);
  rig.cycle();
  EXPECT_TRUE(rig.hw.exists());
  EXPECT_FALSE(rig.hw.full());

  fsl::FslFaultControls stuck_empty;
  stuck_empty.stuck_empty = true;
  rig.hub.to_hw(0).arm_fault(stuck_empty);
  rig.cycle();
  EXPECT_FALSE(rig.hw.exists());
  rig.hub.to_hw(0).clear_fault();
  rig.cycle();
  EXPECT_TRUE(rig.hw.exists());
  EXPECT_EQ(rig.hw.data(), 5);

  fsl::FslFaultControls stuck_full;
  stuck_full.stuck_full = true;
  rig.hub.from_hw(0).arm_fault(stuck_full);
  rig.cycle();
  EXPECT_TRUE(rig.hw.full());
  rig.hub.from_hw(0).clear_fault();
  rig.cycle();
  EXPECT_FALSE(rig.hw.full());
}

TEST(Bridge, CorruptedEntryIsPresented) {
  WatcherRig rig;
  rig.hub.to_hw(0).try_write(0x0F, false);
  rig.cycle();
  EXPECT_EQ(rig.hw.data(), 0x0F);
  EXPECT_FALSE(rig.hw.control());
  ASSERT_TRUE(rig.hub.to_hw(0).corrupt_entry(0, 0xF0, true));
  rig.cycle();
  EXPECT_EQ(rig.hw.data(), 0xFF);
  EXPECT_TRUE(rig.hw.control());
}

TEST(Bridge, ResetForgetsWhatWasPresented) {
  WatcherRig rig;
  rig.hub.to_hw(0).try_write(5, false);
  rig.cycle();
  ASSERT_TRUE(rig.hw.exists());
  // The model's reset zeroes the gateways behind the bridge; the FIFO
  // keeps its word and its change count.
  rig.model.reset();
  rig.bridge().reset();
  rig.cycle();
  EXPECT_TRUE(rig.hw.exists());
  EXPECT_EQ(rig.hw.data(), 5);
}

TEST(Bridge, RestoreForgetsWhatWasPresented) {
  WatcherRig rig;
  rig.cycle();  // the empty FIFO, presented
  ckpt::Writer writer;
  rig.model.save_state(writer);
  rig.engine.save_state(writer);
  const std::vector<unsigned char> image = writer.take();

  rig.hub.to_hw(0).try_write(9, true);
  rig.cycle();
  ASSERT_TRUE(rig.hw.exists());
  // The restored gateways present an empty FIFO, which still holds the
  // word it held when it was last presented.
  ckpt::Reader reader(image);
  ASSERT_TRUE(rig.model.load_state(reader));
  ASSERT_TRUE(rig.engine.load_state(reader));
  rig.cycle();
  EXPECT_TRUE(rig.hw.exists());
  EXPECT_EQ(rig.hw.data(), 9);
  EXPECT_TRUE(rig.hw.control());
}

}  // namespace
}  // namespace mbcosim::core
