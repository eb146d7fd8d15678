// sim::Sweep: determinism across thread counts (the per-point results
// must be bit-identical whether the sweep runs serially or on a pool),
// failure isolation, deadlock surfacing and result-table ordering.
//
// This file is also built as the `sweep_tsan_test` executable and run
// under ThreadSanitizer as the tier-2 `sweep_tsan` ctest label.
#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cordic/cordic_app.hpp"
#include "sim/sweep.hpp"

namespace mbcosim::sim {
namespace {

namespace cordic = mbcosim::apps::cordic;

/// A small but real co-simulation workload: CORDIC division, 3 items.
Sweep make_cordic_sweep(const std::vector<i32>& x, const std::vector<i32>& y) {
  Sweep sweep;
  for (unsigned p : {0u, 1u, 2u, 4u}) {
    cordic::CordicRunConfig config;
    config.num_pes = p;
    config.iterations = 8;
    config.items = static_cast<unsigned>(x.size());
    config.set_size = 1;
    sweep.add("P=" + std::to_string(p),
              [config, &x, &y] { return cordic::make_cordic_system(config, x, y); },
              [config, &x, &y](SimSystem& system, SweepPointResult& result) {
                const auto expected = cordic::cordic_expected(config, x, y);
                for (unsigned i = 0; i < config.items; ++i) {
                  if (static_cast<i32>(system.word("results", i)) !=
                      expected[i]) {
                    result.ok = false;
                    result.error = "wrong quotient at item " + std::to_string(i);
                    return;
                  }
                }
              });
  }
  return sweep;
}

void expect_identical(const SweepPointResult& a, const SweepPointResult& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.instructions, b.stats.instructions);
  EXPECT_EQ(a.stats.fsl_stall_cycles, b.stats.fsl_stall_cycles);
  EXPECT_EQ(a.stats.hw_cycles_stepped, b.stats.hw_cycles_stepped);
  EXPECT_EQ(a.stats.hw_cycles_skipped, b.stats.hw_cycles_skipped);
  EXPECT_EQ(a.stats.bridge.words_to_hw, b.stats.bridge.words_to_hw);
  EXPECT_EQ(a.stats.bridge.words_from_hw, b.stats.bridge.words_from_hw);
  EXPECT_EQ(a.stats.bridge.refused_writes, b.stats.bridge.refused_writes);
  EXPECT_EQ(a.estimated_resources, b.estimated_resources);
  EXPECT_EQ(a.implemented_resources, b.implemented_resources);
  // The energy model is pure arithmetic over the (identical) stats and
  // resources, so even the doubles must match bit for bit.
  EXPECT_EQ(a.energy.processor_nj, b.energy.processor_nj);
  EXPECT_EQ(a.energy.peripheral_nj, b.energy.peripheral_nj);
  EXPECT_EQ(a.energy.static_nj, b.energy.static_nj);
  EXPECT_EQ(a.energy.cycles, b.energy.cycles);
}

TEST(Sweep, SerialAndParallelRunsAreBitIdentical) {
  const auto [x, y] = cordic::make_cordic_dataset(3, 42);
  const Sweep sweep = make_cordic_sweep(x, y);

  const auto serial = sweep.run({.threads = 1});
  const auto parallel = sweep.run({.threads = 4});

  ASSERT_EQ(serial.size(), sweep.size());
  ASSERT_EQ(parallel.size(), sweep.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].label);
    EXPECT_TRUE(serial[i].ok) << serial[i].error;
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(Sweep, ResultsKeepAddOrderOnManyThreads) {
  const auto [x, y] = cordic::make_cordic_dataset(2, 7);
  const Sweep sweep = make_cordic_sweep(x, y);
  const auto results = sweep.run({.threads = 8});
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
  }
  EXPECT_EQ(results[0].label, "P=0");
  EXPECT_EQ(results[1].label, "P=1");
  EXPECT_EQ(results[2].label, "P=2");
  EXPECT_EQ(results[3].label, "P=4");
}

/// A builder for the one-core machine running `source`.
SimSystem::Builder one_core(std::string source) {
  SimSystem::Builder builder;
  builder.machine(machine::MachineDesc::single_core(std::move(source)));
  return builder;
}

TEST(Sweep, FailingPointsDoNotPoisonTheOthers) {
  Sweep sweep;
  // Point 0: healthy software-only run.
  sweep.add("good", [] {
    return one_core("li r3, 5\nhalt\n").build();
  });
  // Point 1: the factory itself reports a build error.
  sweep.add("unbuildable", [] { return SimSystem::Builder().build(); });
  // Point 2: builds, but the software blocks on an FSL that no hardware
  // ever serves — a deadlocked configuration point.
  sweep.add("deadlocked", [] {
    return one_core("get r4, rfsl0\nhalt\n")
        .deadlock_threshold(200)
        .build();
  });
  // Point 3: the factory throws instead of returning an error.
  sweep.add("throwing", []() -> Expected<SimSystem> {
    throw SimError("factory blew up");
  });
  // Point 4: healthy again — must be unaffected by its neighbours.
  sweep.add("good-too", [] {
    return one_core("li r3, 6\nhalt\n").build();
  });

  const auto results = sweep.run({.threads = 4});
  ASSERT_EQ(results.size(), 5u);

  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].stop, core::StopReason::kHalted);

  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("no machine"), std::string::npos);

  EXPECT_FALSE(results[2].ok);
  EXPECT_TRUE(results[2].error.empty());
  EXPECT_EQ(results[2].stop, core::StopReason::kDeadlock);

  EXPECT_FALSE(results[3].ok);
  EXPECT_NE(results[3].error.find("factory blew up"), std::string::npos);

  EXPECT_TRUE(results[4].ok) << results[4].error;
  EXPECT_GT(results[4].stats.cycles, 0u);
}

TEST(Sweep, CollectorRunsForEveryPointThatRan) {
  std::atomic<int> collected{0};
  std::atomic<int> saw_deadlock{0};
  Sweep sweep;
  sweep.add(
      "halts", [] { return one_core("halt\n").build(); },
      [&collected](SimSystem&, SweepPointResult&) { ++collected; });
  // A deadlocked point still ran: its collector must fire too (with
  // result.ok == false), so a sweep can autopsy the stuck system.
  sweep.add(
      "deadlocks",
      [] {
        return one_core("get r4, rfsl0\nhalt\n")
            .deadlock_threshold(100)
            .build();
      },
      [&collected, &saw_deadlock](SimSystem&, SweepPointResult& result) {
        ++collected;
        if (!result.ok && result.stop == core::StopReason::kDeadlock) {
          ++saw_deadlock;
        }
      });
  // A point whose factory fails never produces a system to inspect.
  sweep.add(
      "unbuildable", [] { return SimSystem::Builder().build(); },
      [&collected](SimSystem&, SweepPointResult&) { ++collected; });
  const auto results = sweep.run({.threads = 2});
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_FALSE(results[2].ok);
  EXPECT_EQ(collected.load(), 2);
  EXPECT_EQ(saw_deadlock.load(), 1);
}

TEST(Sweep, MetricsSnapshotIsCapturedPerPoint) {
  Sweep sweep;
  sweep.add("with-metrics", [] {
    return one_core("add r3, r4, r5\nhalt\n")
        .metrics()
        .build();
  });
  sweep.add("without-metrics", [] {
    return one_core("add r3, r4, r5\nhalt\n").build();
  });
  // Metrics reach the result row even for a deadlocked point — that is
  // precisely when the aggregated stall counters matter most.
  sweep.add("deadlocked-with-metrics", [] {
    return one_core("get r4, rfsl0\nhalt\n")
        .deadlock_threshold(50)
        .metrics()
        .build();
  });
  const auto results = sweep.run({.threads = 2});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].metrics.empty());
  EXPECT_EQ(results[0].metrics.counter("cpu.retired"), 1u);
  EXPECT_EQ(results[0].metrics.counter("cpu.halts"), 1u);
  EXPECT_TRUE(results[1].metrics.empty());
  EXPECT_FALSE(results[2].ok);
  EXPECT_EQ(results[2].metrics.counter("cpu.stall_cycles"), 50u);
  EXPECT_EQ(results[2].metrics.counter("engine.deadlocks"), 1u);
}

TEST(Sweep, EstimatesCanBeSkipped) {
  Sweep sweep;
  sweep.add("sw", [] { return one_core("halt\n").build(); });
  const auto with = sweep.run({.threads = 1, .estimates = true});
  const auto without = sweep.run({.threads = 1, .estimates = false});
  EXPECT_GT(with[0].estimated_resources.slices, 0u);
  EXPECT_EQ(without[0].estimated_resources.slices, 0u);
  EXPECT_EQ(with[0].stats.cycles, without[0].stats.cycles);
}

TEST(Sweep, EmptySweepReturnsNoRows) {
  const Sweep sweep;
  EXPECT_TRUE(sweep.run({.threads = 4}).empty());
}

TEST(ThreadPool, RunsEveryJobAndWaitsIdle) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.submit([i, &sum] { sum += i; });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

}  // namespace
}  // namespace mbcosim::sim
