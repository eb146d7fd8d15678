// FSL channel and hub unit tests (FIFO semantics, flags, statistics).
#include "fsl/fsl_channel.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "ckpt/ckpt.hpp"
#include "fsl/fsl_hub.hpp"

namespace mbcosim::fsl {
namespace {

TEST(FslChannel, StartsEmpty) {
  FslChannel ch;
  EXPECT_FALSE(ch.exists());
  EXPECT_FALSE(ch.full());
  EXPECT_EQ(ch.occupancy(), 0u);
  EXPECT_EQ(ch.depth(), FslChannel::kDefaultDepth);
}

TEST(FslChannel, FifoOrder) {
  FslChannel ch;
  ch.try_write(1, false);
  ch.try_write(2, true);
  ch.try_write(3, false);
  EXPECT_EQ(ch.try_read()->data, 1u);
  EXPECT_EQ(ch.try_read()->data, 2u);
  EXPECT_EQ(ch.try_read()->data, 3u);
  EXPECT_FALSE(ch.try_read().has_value());
}

TEST(FslChannel, ControlBitTravelsWithData) {
  FslChannel ch;
  ch.try_write(7, true);
  const auto entry = ch.try_read();
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->control);
}

TEST(FslChannel, FullFlagBlocksWrites) {
  FslChannel ch(2);
  EXPECT_TRUE(ch.try_write(1, false));
  EXPECT_TRUE(ch.try_write(2, false));
  EXPECT_TRUE(ch.full());
  EXPECT_FALSE(ch.try_write(3, false));
  EXPECT_EQ(ch.refused_writes(), 1u);
  (void)ch.try_read();
  EXPECT_FALSE(ch.full());
  EXPECT_TRUE(ch.try_write(3, false));
}

TEST(FslChannel, PeekDoesNotConsume) {
  FslChannel ch;
  ch.try_write(9, false);
  EXPECT_EQ(ch.peek()->data, 9u);
  EXPECT_EQ(ch.occupancy(), 1u);
  EXPECT_EQ(ch.try_read()->data, 9u);
  EXPECT_FALSE(ch.peek().has_value());
}

TEST(FslChannel, StatisticsTrackTraffic) {
  FslChannel ch(4);
  for (int i = 0; i < 3; ++i) ch.try_write(i, false);
  (void)ch.try_read();
  EXPECT_EQ(ch.total_writes(), 3u);
  EXPECT_EQ(ch.total_reads(), 1u);
  EXPECT_EQ(ch.max_occupancy(), 3u);
  ch.reset_stats();
  EXPECT_EQ(ch.total_writes(), 0u);
  EXPECT_EQ(ch.max_occupancy(), ch.occupancy());
}

TEST(FslChannel, ClearEmpties) {
  FslChannel ch;
  ch.try_write(1, false);
  ch.clear();
  EXPECT_FALSE(ch.exists());
}

TEST(FslChannel, ZeroDepthRejected) {
  EXPECT_THROW(FslChannel(0), SimError);
}

// The FIFO is a ring: the tests below move its head past the end of the
// ring's storage, so entries sit on both sides of the wrap point.

/// Write then read `count` words, leaving the head `count` entries on.
void advance_head(FslChannel& ch, int count) {
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(ch.try_write(0xdead, false));
    ASSERT_TRUE(ch.try_read().has_value());
  }
}

TEST(FslChannel, KeepsOrderAcrossTheWrapPoint) {
  FslChannel ch(4);
  for (Word round = 0; round < 5; ++round) {
    for (Word i = 0; i < 3; ++i) {
      ASSERT_TRUE(ch.try_write(round * 10 + i, i == 1));
    }
    for (Word i = 0; i < 3; ++i) {
      const auto entry = ch.try_read();
      ASSERT_TRUE(entry.has_value());
      EXPECT_EQ(entry->data, round * 10 + i);
      EXPECT_EQ(entry->control, i == 1);
    }
  }
  EXPECT_EQ(ch.total_writes(), 15u);
  EXPECT_EQ(ch.max_occupancy(), 3u);
}

TEST(FslChannel, DuplicateFaultAtDepthMinusOneWrapsAndFills) {
  FslChannel ch(4);
  advance_head(ch, 3);  // the next entries land in slots 3, 0, 1, 2
  ASSERT_TRUE(ch.try_write(1, false));
  ASSERT_TRUE(ch.try_write(2, false));
  FslFaultControls controls;
  controls.stream = FslFaultControls::Stream::kDuplicate;
  ch.arm_fault(controls);
  // The third word lands at position depth - 2 and its copy at depth - 1,
  // the last free entry, past the wrap point: the FIFO is full.
  ASSERT_TRUE(ch.try_write(3, true));
  EXPECT_TRUE(ch.fault()->fired);
  EXPECT_TRUE(ch.full());
  EXPECT_EQ(ch.occupancy(), 4u);
  EXPECT_EQ(ch.total_writes(), 6u);  // the copy is no write
  EXPECT_EQ(ch.max_occupancy(), 4u);
  EXPECT_FALSE(ch.try_write(4, false));
  for (const Word expected : {1u, 2u, 3u, 3u}) {
    const auto entry = ch.try_read();
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->data, expected);
  }
  EXPECT_FALSE(ch.exists());
}

TEST(FslChannel, DuplicateFaultOnTheLastFreeEntryDropsTheCopy) {
  FslChannel ch(4);
  advance_head(ch, 2);
  for (Word i = 1; i <= 3; ++i) ASSERT_TRUE(ch.try_write(i, false));
  FslFaultControls controls;
  controls.stream = FslFaultControls::Stream::kDuplicate;
  ch.arm_fault(controls);
  // The word lands at position depth - 1, the last free entry, which
  // leaves its copy no room.
  ASSERT_TRUE(ch.try_write(4, false));
  EXPECT_EQ(ch.occupancy(), 4u);
  for (const Word expected : {1u, 2u, 3u, 4u}) {
    EXPECT_EQ(ch.try_read()->data, expected);
  }
}

TEST(FslChannel, CorruptEntryAcrossTheWrapPoint) {
  FslChannel ch(4);
  advance_head(ch, 3);  // head at the last slot of the ring
  for (Word i = 1; i <= 4; ++i) ASSERT_TRUE(ch.try_write(i, false));
  // Index 0 sits before the wrap point, 1..3 after it.
  EXPECT_TRUE(ch.corrupt_entry(2, 0xF0, true));
  EXPECT_TRUE(ch.corrupt_entry(0, 0x100, false));
  EXPECT_FALSE(ch.corrupt_entry(4, 0xF0, true));
  const FslEntry expected[] = {{0x101, false}, {2, false}, {0xF3, true},
                               {4, false}};
  for (const FslEntry& entry : expected) EXPECT_EQ(*ch.try_read(), entry);
}

TEST(FslChannel, StuckFullAndStuckEmptyHoldAcrossTheWrapPoint) {
  FslChannel ch(4);
  advance_head(ch, 3);
  ASSERT_TRUE(ch.try_write(1, false));
  ASSERT_TRUE(ch.try_write(2, false));
  FslFaultControls controls;
  controls.stuck_full = true;
  ch.arm_fault(controls);
  EXPECT_TRUE(ch.full());
  EXPECT_FALSE(ch.try_write(3, false));
  EXPECT_EQ(ch.refused_writes(), 1u);
  EXPECT_EQ(ch.try_read()->data, 1u);  // reads still drain

  controls = FslFaultControls{};
  controls.stuck_empty = true;
  ch.arm_fault(controls);
  EXPECT_FALSE(ch.exists());
  EXPECT_FALSE(ch.try_read().has_value());
  EXPECT_FALSE(ch.peek().has_value());
  EXPECT_TRUE(ch.try_write(3, false));  // writes still land
  EXPECT_EQ(ch.occupancy(), 2u);

  ch.clear_fault();
  EXPECT_EQ(ch.try_read()->data, 2u);
  EXPECT_EQ(ch.try_read()->data, 3u);
}

TEST(FslChannel, DeepFifoGrowsItsRingInOrder) {
  FslChannel ch(40);
  advance_head(ch, 10);  // the default ring of 16 is wrapped when it grows
  // The 16th word fills the default ring; its duplicate needs the growth.
  FslFaultControls controls;
  controls.stream = FslFaultControls::Stream::kDuplicate;
  controls.countdown = 15;
  ch.arm_fault(controls);
  for (Word i = 0; i < 39; ++i) ASSERT_TRUE(ch.try_write(i, i % 3 == 0));
  EXPECT_TRUE(ch.full());
  EXPECT_EQ(ch.occupancy(), 40u);
  EXPECT_FALSE(ch.try_write(99, false));
  std::vector<Word> expected;
  for (Word i = 0; i < 39; ++i) {
    expected.push_back(i);
    if (i == 15) expected.push_back(i);
  }
  for (const Word word : expected) {
    const auto entry = ch.try_read();
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->data, word);
    EXPECT_EQ(entry->control, word % 3 == 0);
  }
  EXPECT_FALSE(ch.exists());
}

/// The sequence behind the mid-wrap checkpoint image below: a ring of
/// four whose three entries straddle the wrap point, one of them
/// corrupted, with a stream fault armed.
FslChannel mid_wrap_channel() {
  FslChannel ch(4, "t");
  for (Word w = 1; w <= 4; ++w) ch.try_write(0x100 + w, w % 2 == 0);
  (void)ch.try_read();
  (void)ch.try_read();
  ch.try_write(0x105, true);
  ch.try_write(0x106, false);
  (void)ch.try_read();
  ch.corrupt_entry(1, 0xFF00, true);
  FslFaultControls controls;
  controls.stream = FslFaultControls::Stream::kCorrupt;
  controls.countdown = 7;
  controls.mask = 0xF0;
  ch.arm_fault(controls);
  return ch;
}

TEST(FslChannel, MidWrapCheckpointKeepsItsBytes) {
  // The image of mid_wrap_channel() as the deque-backed FIFO wrote it:
  // occupancy, the entries head to tail, the counters, the fault.
  const std::vector<unsigned char> expected = {
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // occupancy 3
      0x04, 0x01, 0x00, 0x00, 0x01,                    // 0x104, control
      0x05, 0xfe, 0x00, 0x00, 0x00,                    // 0xfe05, flipped
      0x06, 0x01, 0x00, 0x00, 0x00,                    // 0x106
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // writes
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // reads
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // refused
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // max occupancy
      0x01, 0x01,                                      // armed, kCorrupt
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // countdown
      0xf0, 0x00, 0x00, 0x00,                          // mask
      0x00, 0x00, 0x00};                               // flags
  const FslChannel ch = mid_wrap_channel();
  ckpt::Writer writer;
  ch.save_state(writer);
  EXPECT_EQ(writer.buffer(), expected);

  // Restored into a fresh ring, it reads back the same words and writes
  // the same image.
  FslChannel restored(4, "t");
  ckpt::Reader reader(expected);
  ASSERT_TRUE(restored.load_state(reader));
  ckpt::Writer again;
  restored.save_state(again);
  EXPECT_EQ(again.buffer(), expected);
  EXPECT_EQ(restored.try_read()->data, 0x104u);
  EXPECT_EQ(restored.try_read()->data, 0xfe05u);
  EXPECT_EQ(restored.try_read()->data, 0x106u);
}

// changes() moves with every change to the entries or the flags, and
// with nothing else: readers that present the FIFO elsewhere rely on it.
TEST(FslChannel, EveryMutationBumpsChanges) {
  FslChannel ch(2);
  u64 seen = ch.changes();
  const auto bumped = [&] {
    const bool moved = ch.changes() != seen;
    seen = ch.changes();
    return moved;
  };
  EXPECT_TRUE(ch.try_write(1, false));
  EXPECT_TRUE(bumped());
  EXPECT_TRUE(ch.try_write(2, true));
  EXPECT_TRUE(bumped());
  EXPECT_FALSE(ch.try_write(3, false));  // full: refused, nothing changed
  EXPECT_FALSE(bumped());
  EXPECT_TRUE(ch.peek().has_value());
  EXPECT_FALSE(bumped());
  EXPECT_TRUE(ch.corrupt_entry(1, 0xF0, false));
  EXPECT_TRUE(bumped());
  EXPECT_TRUE(ch.try_read().has_value());
  EXPECT_TRUE(bumped());
  FslFaultControls stuck;
  stuck.stuck_empty = true;
  ch.arm_fault(stuck);
  EXPECT_TRUE(bumped());
  ch.clear_fault();
  EXPECT_TRUE(bumped());
  ckpt::Writer writer;
  ch.save_state(writer);
  EXPECT_FALSE(bumped());
  ch.clear();
  EXPECT_TRUE(bumped());
  ckpt::Reader reader(writer.buffer());
  ASSERT_TRUE(ch.load_state(reader));
  EXPECT_TRUE(bumped());
  ch.reset_stats();
  EXPECT_FALSE(bumped());
}

// The same operations on an unobserved channel (the inline fast paths)
// and on one with metrics attached (the out-of-line paths) return the
// same results and leave the same entries and counters, through ring
// growth, refusals and the wrap point.
TEST(FslChannel, FastAndObservedPathsAgree) {
  FslChannel fast(40, "fast");
  FslChannel observed(40, "observed");
  obs::FslCounters counters;
  observed.set_metrics(&counters);
  u32 state = 12345;
  for (int step = 0; step < 2000; ++step) {
    state = state * 1103515245u + 12345u;
    const Word data = state >> 8;
    const bool control = (state & 0x100u) != 0;
    if ((state >> 28) < 9) {
      ASSERT_EQ(fast.try_write(data, control),
                observed.try_write(data, control));
    } else {
      const auto a = fast.try_read();
      const auto b = observed.try_read();
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        ASSERT_EQ(*a, *b);
      }
    }
    ASSERT_EQ(fast.peek().has_value(), observed.peek().has_value());
  }
  ckpt::Writer a;
  fast.save_state(a);
  ckpt::Writer b;
  observed.save_state(b);
  EXPECT_EQ(a.buffer(), b.buffer());
  EXPECT_EQ(counters.push, observed.total_writes());
  EXPECT_EQ(counters.pop, observed.total_reads());
}

TEST(FslHub, ChannelsAreIndependent) {
  FslHub hub;
  hub.to_hw(0).try_write(1, false);
  hub.to_hw(7).try_write(2, false);
  hub.from_hw(0).try_write(3, false);
  EXPECT_EQ(hub.to_hw(0).occupancy(), 1u);
  EXPECT_EQ(hub.to_hw(7).occupancy(), 1u);
  EXPECT_EQ(hub.to_hw(1).occupancy(), 0u);
  EXPECT_EQ(hub.from_hw(0).occupancy(), 1u);
}

TEST(FslHub, RangeChecked) {
  FslHub hub;
  EXPECT_THROW(hub.to_hw(8), SimError);
  EXPECT_THROW(hub.from_hw(99), SimError);
}

TEST(FslHub, ClearAffectsAllChannels) {
  FslHub hub;
  hub.to_hw(3).try_write(1, false);
  hub.from_hw(4).try_write(2, false);
  hub.clear();
  EXPECT_FALSE(hub.to_hw(3).exists());
  EXPECT_FALSE(hub.from_hw(4).exists());
}

}  // namespace
}  // namespace mbcosim::fsl
