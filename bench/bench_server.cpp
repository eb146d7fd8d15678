// Server durability bench: what does the session journal cost? A hosted
// session on a scaled-up 3-core CORDIC farm runs to halt three ways —
// journal off, journal at the default checkpoint interval, journal at
// an aggressive interval — and the wall-clock overhead of each journaled
// run over the baseline is reported against the <5% budget DESIGN.md
// §14 promises for the default interval. Journaling must also be
// invisible in the results: the bench diffs the stats page of every
// journaled run against the baseline and exits 1 on any mismatch (the
// correctness oracle, same role the report diff plays in bench_ckpt).
// The variants' repeats are interleaved, and each journaled line prints
// the bytes and flushed writes its journal made, so that a real cost
// can be told from host noise. It also times the journal-off run with
// metrics off: metrics are typed counters, not a trace sink, so turning
// them on must neither change the stats page nor cost much wall-clock.
// (That metrics keep the dbt tier running is guarded elsewhere:
// bench_table2's `fast_path == 0` check and
// tests/obs/metrics_tier_test.cpp.)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "apps/machine_peripherals.hpp"
#include "common/stopwatch.hpp"
#include "machine/machine_desc.hpp"
#include "server/journal.hpp"
#include "server/session.hpp"
#include "sim/sim_system.hpp"

namespace {

using namespace mbcosim;

/// Rounds of the farm's 8-item dataset the feeder streams. The checked-in
/// examples/machines/cordic_farm.json halts after one round (~340
/// cycles); the bench loops the same dataset so one hosted run crosses
/// the default checkpoint interval (~1.1M cycles at ~224 cycles/round
/// once rounds overlap in the pipeline) while staying a few seconds per
/// run — the farm's stall-heavy FSL schedule simulates at a few hundred
/// kHz, far below single-core DBT speeds.
constexpr unsigned kRounds = 5'000;

constexpr Cycle kControlQuantum = 50'000;   // same for every variant
constexpr Cycle kDefaultCkptEvery = 1'000'000;
constexpr Cycle kAggressiveCkptEvery = 100'000;
constexpr Cycle kRunForever = Cycle{1} << 36;
constexpr int kRepeats = 5;  // min-of-N wall clock, interleaved
constexpr unsigned kProfileRounds = 500;  // per-core host time probe

server::SessionConfig session_config(Cycle ckpt_every, bool metrics = true) {
  server::SessionConfig config;
  config.desc = bench::cordic_farm(1, kRounds);
  // Single-threaded rounds: worker count never changes results, only
  // wall-clock, and one thread keeps the measurement about the journal
  // instead of about thread-pool barrier latency at a 64-cycle quantum.
  config.workers = 1;
  config.metrics = metrics;
  config.trace = false;
  config.control_quantum = kControlQuantum;
  config.ckpt_every = ckpt_every;
  return config;
}

struct RunResult {
  Cycle cycles = 0;
  double wall_seconds = 0.0;
  std::string stats;
  server::SessionJournal::WriteCounts journal;  ///< zero without a journal
};

/// Host one session, run it to halt, wait for idle. `state_dir` empty
/// means no journal. Returns nullopt-style failure via exit(1) — this is
/// a bench, the environment is under our control.
RunResult hosted_run(u64 id, Cycle ckpt_every, const std::string& state_dir,
                     bool metrics) {
  std::unique_ptr<server::SessionJournal> journal;
  std::unique_ptr<server::JournalStore> store;
  server::SessionConfig config = session_config(ckpt_every, metrics);
  if (!state_dir.empty()) {
    auto opened = server::JournalStore::open(state_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "journal open failed: %s\n",
                   opened.error().c_str());
      std::exit(1);
    }
    store = std::move(opened).value();
    auto created = store->create_session(
        id, server::session_config_to_json(config));
    if (!created.ok()) {
      std::fprintf(stderr, "journal create failed: %s\n",
                   created.error().c_str());
      std::exit(1);
    }
    journal = std::move(created).value();
  }
  // The session owns the journal until kill().
  server::SessionJournal* const journal_view = journal.get();
  auto session =
      server::Session::create(id, std::move(config), std::move(journal));
  if (!session.ok()) {
    std::fprintf(stderr, "session create failed: %s\n",
                 session.error().c_str());
    std::exit(1);
  }

  Stopwatch watch;
  if (const std::string err = session.value()->run_async(kRunForever);
      !err.empty()) {
    std::fprintf(stderr, "run failed: %s\n", err.c_str());
    std::exit(1);
  }
  while (session.value()->state() == server::SessionState::kRunning) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  RunResult result;
  result.wall_seconds = watch.elapsed_seconds();
  if (journal_view != nullptr) result.journal = journal_view->write_counts();

  const auto stats = session.value()->stats_page();
  if (!stats.ok()) {
    std::fprintf(stderr, "stats failed: %s\n", stats.error().c_str());
    std::exit(1);
  }
  result.stats = stats.value();
  const std::string info = session.value()->info_json();
  const std::size_t at = info.find("\"cycles\":");
  result.cycles =
      at == std::string::npos
          ? 0
          : std::strtoull(info.c_str() + at + 9, nullptr, 10);
  if (const std::string err = session.value()->kill(); !err.empty()) {
    std::fprintf(stderr, "kill failed: %s\n", err.c_str());
    std::exit(1);
  }
  return result;
}

/// Where the farm's host time goes, core by core: the same farm run
/// in-process at the sessions' control quantum and worker count for
/// kProfileRounds rounds, read from ManyCoreEngine::node_host_ns.
void print_core_host_time() {
  const server::SessionConfig config = session_config(0);
  auto built = sim::SimSystem::Builder()
                   .machine(bench::cordic_farm(1, kProfileRounds))
                   .workers(config.workers)
                   .metrics()
                   .build();
  if (!built.ok()) {
    std::fprintf(stderr, "farm build failed: %s\n", built.error().c_str());
    std::exit(1);
  }
  sim::SimSystem system = std::move(built).value();
  for (Cycle target = config.control_quantum;
       system.run(target) == core::StopReason::kCycleLimit;
       target += config.control_quantum) {
  }
  const core::ManyCoreEngine& engine = *system.machine_engine();
  u64 total_ns = 0;
  for (std::size_t i = 0; i < engine.core_count(); ++i) {
    total_ns += engine.node_host_ns(i);
  }
  for (std::size_t i = 0; i < engine.core_count(); ++i) {
    const u64 ns = engine.node_host_ns(i);
    std::printf("%-32s %12.4f s  (%4.1f%% of core time)\n",
                ("core " + engine.core_name(i) + " host time").c_str(),
                static_cast<double>(ns) / 1e9,
                total_ns > 0 ? 100.0 * static_cast<double>(ns) /
                                   static_cast<double>(total_ns)
                             : 0.0);
  }
}

/// One hosted-run configuration the guard compares.
struct Variant {
  std::string label;
  Cycle ckpt_every;
  bool journaled;
  bool metrics;
  RunResult best;  ///< min wall clock; stats from the first repeat
};

/// Run every variant kRepeats times, interleaved (one repeat of each in
/// turn), and keep each one's fastest run: a slow stretch of a shared
/// host then lands on every variant alike instead of on one of them.
/// Stats are deterministic, so every repeat produces the same bytes.
void run_interleaved(std::vector<Variant>& variants,
                     const std::string& state_dir) {
  namespace fs = std::filesystem;
  u64 id = 100;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (Variant& variant : variants) {
      if (variant.journaled) {
        std::error_code ec;
        fs::remove_all(state_dir, ec);  // fresh store per run
      }
      RunResult result =
          hosted_run(id++, variant.ckpt_every,
                     variant.journaled ? state_dir : std::string{},
                     variant.metrics);
      if (repeat == 0 || result.wall_seconds < variant.best.wall_seconds) {
        std::string stats = repeat == 0 ? std::move(result.stats)
                                        : std::move(variant.best.stats);
        variant.best = std::move(result);
        variant.best.stats = std::move(stats);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbcosim::bench;
  namespace fs = std::filesystem;

  const std::string json_path =
      take_json_path_arg(argc, argv, "BENCH_server.json");
  JsonReport report("server");

  mbcosim::apps::register_machine_peripherals();
  const std::string state_dir =
      (fs::temp_directory_path() / "mbcosim_bench_server_state").string();

  print_header(
      "Session journal overhead: hosted CORDIC farm, " +
      std::to_string(kRounds) + " rounds, min of " +
      std::to_string(kRepeats));

  std::vector<Variant> variants = {
      {"journal off", 0, false, true, {}},
      {"journal off, metrics off", 0, false, false, {}},
      {"journal on, ckpt_every=" + std::to_string(kDefaultCkptEvery),
       kDefaultCkptEvery, true, true, {}},
      {"journal on, ckpt_every=" + std::to_string(kAggressiveCkptEvery),
       kAggressiveCkptEvery, true, true, {}},
  };
  run_interleaved(variants, state_dir);
  {
    std::error_code ec;
    fs::remove_all(state_dir, ec);
  }
  const RunResult& baseline = variants[0].best;
  const RunResult& unmetered = variants[1].best;
  const RunResult& journaled = variants[2].best;
  const RunResult& aggressive = variants[3].best;

  const auto overhead = [&](const RunResult& run) {
    return baseline.wall_seconds > 0.0
               ? (run.wall_seconds / baseline.wall_seconds - 1.0) * 100.0
               : 0.0;
  };
  std::printf("%-32s %12.4f s\n", variants[0].label.c_str(), baseline.wall_seconds);
  std::printf("%-32s %12.4f s  (metrics on/off %.3fx)\n",
              variants[1].label.c_str(),
              unmetered.wall_seconds,
              unmetered.wall_seconds > 0.0
                  ? baseline.wall_seconds / unmetered.wall_seconds
                  : 0.0);
  for (const Variant* variant : {&variants[2], &variants[3]}) {
    const RunResult& run = variant->best;
    std::printf("%-32s %12.4f s  (%+.2f%%; journal %.1f KiB in %llu "
                "flushed writes, 0 fsyncs)\n",
                variant->label.c_str(), run.wall_seconds, overhead(run),
                static_cast<double>(run.journal.bytes) / 1024.0,
                static_cast<unsigned long long>(run.journal.writes));
  }
  for (const Variant& variant : variants) {
    std::string name = variant.journaled
                           ? "journal=ckpt_every_" +
                                 std::to_string(variant.ckpt_every)
                           : std::string("journal=off");
    if (!variant.metrics) name += ",metrics=off";
    report.add(name, variant.best.cycles, variant.best.wall_seconds);
  }

  // The correctness oracle: journaling is observation, not simulation —
  // a journaled run's stats must be byte-identical to the baseline's.
  if (journaled.stats != baseline.stats ||
      aggressive.stats != baseline.stats) {
    std::fprintf(stderr,
                 "FAIL: journaled run stats differ from the baseline\n");
    return 1;
  }
  std::printf("journaled stats are byte-identical to the baseline\n");
  if (unmetered.stats != baseline.stats) {
    std::fprintf(stderr,
                 "FAIL: the metrics-off run's stats differ from the baseline\n");
    return 1;
  }
  std::printf("metrics-off stats are byte-identical to the baseline\n");
  print_core_host_time();
  if (overhead(journaled) >= 5.0) {
    std::printf("note: default-interval journal overhead %+.2f%% exceeds "
                "the 5%% budget (loaded host?)\n", overhead(journaled));
  }

  return report.write(json_path) ? 0 : 1;
}
