#include "fault/campaign.hpp"

#include <cstdio>
#include <utility>

#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "sim/sweep.hpp"

namespace mbcosim::fault {

namespace {

constexpr std::array<Outcome, 4> kOutcomes = {
    Outcome::kMasked, Outcome::kSdc, Outcome::kHang, Outcome::kTrap};

void append_histogram(
    std::string& out, const char* key,
    const std::map<std::string, std::array<u32, 4>>& histogram) {
  out += "  \"";
  out += key;
  out += "\": {";
  bool first_row = true;
  for (const auto& [name, counts] : histogram) {
    out += first_row ? "\n" : ",\n";
    first_row = false;
    out += "    \"" + name + "\": {";
    bool first_cell = true;
    for (const Outcome outcome : kOutcomes) {
      if (!first_cell) out += ", ";
      first_cell = false;
      char buf[48];
      std::snprintf(buf, sizeof buf, "\"%s\": %u", outcome_name(outcome),
                    counts[static_cast<std::size_t>(outcome)]);
      out += buf;
    }
    out += "}";
  }
  out += first_row ? "}" : "\n  }";
}

}  // namespace

std::string CampaignReport::to_json() const {
  std::string out;
  out.reserve(256 + results.size() * 192);
  char buf[256];

  out += "{\n";
  std::snprintf(buf, sizeof buf,
                "  \"seed\": %llu,\n  \"experiments\": %zu,\n"
                "  \"golden_cycles\": %llu,\n  \"build_failures\": %u,\n",
                static_cast<unsigned long long>(seed), results.size(),
                static_cast<unsigned long long>(golden_cycles),
                build_failures);
  out += buf;

  out += "  \"outcomes\": {";
  for (const Outcome outcome : kOutcomes) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %u",
                  outcome == Outcome::kMasked ? "" : ", ",
                  outcome_name(outcome), total(outcome));
    out += buf;
  }
  out += "},\n";

  append_histogram(out, "by_site", by_site);
  out += ",\n";
  append_histogram(out, "by_mode", by_mode);
  out += ",\n";

  out += "  \"results\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& row = results[i];
    out += i == 0 ? "\n" : ",\n";
    std::snprintf(buf, sizeof buf,
                  "    {\"index\": %zu, \"plan\": \"%s\", \"seed\": %llu, "
                  "\"outcome\": \"%s\", \"stop\": \"%s\", \"cycles\": %llu, "
                  "\"injected\": %s",
                  i, row.plan.to_spec().c_str(),
                  static_cast<unsigned long long>(row.plan.seed),
                  outcome_name(row.outcome), core::stop_reason_name(row.stop),
                  static_cast<unsigned long long>(row.cycles),
                  row.injected ? "true" : "false");
    out += buf;
    if (!row.detail.empty()) {
      out += ", \"detail\": \"" + common::json::escape(row.detail) + "\"";
    }
    if (!row.error.empty()) {
      out += ", \"error\": \"" + common::json::escape(row.error) + "\"";
    }
    out += "}";
  }
  out += results.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

Expected<CampaignReport> run_campaign(const CampaignConfig& config,
                                      const SystemFactory& factory,
                                      const OutputExtractor& extract) {
  auto golden = run_golden(factory, extract, config.max_cycles);
  if (!golden.ok()) {
    return Expected<CampaignReport>::failure(golden.error());
  }

  CampaignReport report;
  report.seed = config.seed;
  report.golden_cycles = golden.value().cycles;

  // Draw every plan up front on this thread: the plan list is a pure
  // function of (seed, experiments, space), independent of the pool.
  Rng rng(config.seed);
  std::vector<FaultPlan> plans;
  plans.reserve(config.experiments);
  for (u32 i = 0; i < config.experiments; ++i) {
    plans.push_back(sample_plan(rng, config.space));
  }

  // Fork-from-checkpoint: every cycle-triggered experiment replays the
  // identical fault-free prefix up to its trigger. Run that prefix once
  // — to the earliest trigger any sampled plan uses — snapshot it, and
  // let those experiments resume from the image. The image never feeds
  // count-triggered plans (their faults arm at build and count traffic
  // from cycle 0) and never appears in the report, which stays
  // byte-identical with forking on or off.
  std::vector<unsigned char> fork_image;
  bool have_fork = false;
  if (config.fork) {
    Cycle earliest = 0;
    for (const FaultPlan& plan : plans) {
      if (plan.trigger != TriggerKind::kCycle) continue;
      if (earliest == 0 || plan.trigger_value < earliest) {
        earliest = plan.trigger_value;
      }
    }
    if (earliest > 1 && earliest < config.max_cycles) {
      if (auto base = factory(nullptr); base.ok()) {
        sim::SimSystem system = std::move(base).value();
        Cycle fork_cycle = earliest;
        if (system.core_count() > 1) {
          // Machine rounds transfer the cross-links at quantum
          // barriers. Snapshot on a barrier, so the resumed run's
          // rounds fall on the same cycles an unforked run's would.
          fork_cycle = earliest - earliest % system.machine_desc().quantum;
        }
        // The prefix must still be running at the fork point; a base
        // that halts or faults first makes forking pointless (every
        // faulted run reaches the same terminal state before firing).
        if (fork_cycle > 1 &&
            system.run(fork_cycle) == core::StopReason::kCycleLimit) {
          fork_image = system.snapshot();
          have_fork = true;
        }
      }
    }
  }

  report.results.resize(plans.size());
  {
    ThreadPool pool(config.threads);
    const GoldenReference& reference = golden.value();
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const std::vector<unsigned char>* image =
          have_fork && plans[i].trigger == TriggerKind::kCycle ? &fork_image
                                                               : nullptr;
      pool.submit([&, i, image] {
        report.results[i] = run_experiment(factory, extract, plans[i],
                                           reference, config.max_cycles,
                                           image);
      });
    }
    pool.wait_idle();
  }

  for (const ExperimentResult& row : report.results) {
    if (!row.error.empty()) {
      ++report.build_failures;
      continue;
    }
    const auto slot = static_cast<std::size_t>(row.outcome);
    ++report.outcome_totals[slot];
    ++report.by_site[site_name(row.plan.site)][slot];
    ++report.by_mode[mode_name(row.plan.mode)][slot];
  }
  return report;
}

}  // namespace mbcosim::fault
