// fault::Campaign: a Monte Carlo fault-injection campaign. One seeded
// RNG samples N FaultPlans from a PlanSpace, each plan becomes one
// fault::Experiment against a shared golden reference, and the
// experiments fan out on a ThreadPool (every SimSystem is
// self-contained, so experiments are embarrassingly parallel). The
// report — outcome totals plus per-site and per-mode histograms — is
// the design's vulnerability profile, the co-simulation analog of a
// radiation-test SEU cross-section table.
//
// Determinism contract: all N plans are drawn up front from Rng(seed)
// on the calling thread, results land in pre-sized rows indexed by
// experiment number, and the JSON report is rendered in index order
// after the pool drains — so the same (seed, experiments, space)
// produces a byte-identical report at any worker count.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "fault/experiment.hpp"
#include "fault/fault_plan.hpp"

namespace mbcosim::fault {

struct CampaignConfig {
  u64 seed = 1;               ///< samples the plan list (and nothing else)
  u32 experiments = 100;      ///< number of sampled plans / experiments
  unsigned threads = 0;       ///< worker threads; 0 = hardware concurrency
  Cycle max_cycles = Cycle{1} << 24;  ///< per-run budget (hang bound)
  /// Fork-from-checkpoint acceleration: run the fault-free base once to
  /// just before the earliest cycle trigger, snapshot it, and start
  /// every cycle-triggered experiment from that image instead of from
  /// cycle 0. Cycle-triggered plans are inert until their trigger (the
  /// injector arms nothing component-level beforehand), so the shared
  /// prefix is bit-identical to each experiment's own — the report is
  /// byte-for-byte the same with forking on or off, only faster.
  /// Count-triggered experiments always run the full path.
  bool fork = true;
  PlanSpace space;
};

struct CampaignReport {
  u64 seed = 0;
  Cycle golden_cycles = 0;
  std::vector<ExperimentResult> results;  ///< one row per plan, in order
  std::array<u32, 4> outcome_totals{};    ///< indexed by Outcome
  u32 build_failures = 0;                 ///< rows with a nonempty error
  /// "site/mode" -> per-outcome counts, e.g. by_site["mem"][kSdc].
  std::map<std::string, std::array<u32, 4>> by_site;
  std::map<std::string, std::array<u32, 4>> by_mode;

  [[nodiscard]] u32 total(Outcome outcome) const noexcept {
    return outcome_totals[static_cast<std::size_t>(outcome)];
  }
  /// The full vulnerability report as pretty-printed JSON. Deterministic:
  /// byte-identical for identical campaign inputs.
  [[nodiscard]] std::string to_json() const;
};

/// Run the campaign: golden run first (its failure is the returned
/// error), then `experiments` sampled plans on `threads` workers.
[[nodiscard]] Expected<CampaignReport> run_campaign(
    const CampaignConfig& config, const SystemFactory& factory,
    const OutputExtractor& extract);

}  // namespace mbcosim::fault
