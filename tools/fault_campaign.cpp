// fault_campaign — Monte Carlo fault-injection campaign over the CORDIC
// division design (paper Section IV-A), the co-simulation analog of a
// radiation-test SEU characterization. Samples N deterministic fault
// plans, runs each against the golden reference on a thread pool, and
// writes the vulnerability report (outcome totals plus per-site and
// per-mode histograms) as JSON.
//
// Usage:
//   fault_campaign [--experiments N] [--seed S] [--threads T]
//                  [--pes P] [--items N] [--json FILE]
//                  [--exec-tier {precise,dbt}]
//
// The report is byte-identical for the same (seed, experiments, design)
// at any --threads value; "--json none" disables file emission.
#include <cstdio>
#include <cstring>
#include <string>

#include "apps/cordic/cordic_app.hpp"
#include "common/stopwatch.hpp"
#include "fault/campaign.hpp"
#include "iss/exec_tier.hpp"

using namespace mbcosim;

namespace {

struct Options {
  u64 seed = 1;
  u32 experiments = 1000;
  unsigned threads = 0;
  unsigned num_pes = 4;
  unsigned items = 4;
  iss::ExecTier exec_tier = iss::ExecTier::kDbt;
  std::string json_path = "BENCH_fault_campaign.json";
};

bool parse_unsigned(const char* text, u64& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 0);
  return end != text && *end == '\0';
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    u64 number = 0;
    if (arg == "--json" && value != nullptr) {
      options.json_path = std::strcmp(value, "none") == 0 ? "" : value;
      ++i;
    } else if (arg == "--exec-tier" && value != nullptr) {
      const auto tier = iss::parse_exec_tier(value);
      if (!tier) {
        std::fprintf(stderr,
                     "bad --exec-tier value: %s (expected precise or "
                     "dbt)\n",
                     value);
        return false;
      }
      options.exec_tier = *tier;
      ++i;
    } else if (value != nullptr && parse_unsigned(value, number)) {
      if (arg == "--experiments") {
        options.experiments = static_cast<u32>(number);
      } else if (arg == "--seed") {
        options.seed = number;
      } else if (arg == "--threads") {
        options.threads = static_cast<unsigned>(number);
      } else if (arg == "--pes") {
        options.num_pes = static_cast<unsigned>(number);
      } else if (arg == "--items") {
        options.items = static_cast<unsigned>(number);
      } else {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        return false;
      }
      ++i;
    } else {
      std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: fault_campaign [--experiments N] [--seed S]\n"
                 "                      [--threads T] [--pes P] [--items N]\n"
                 "                      [--json FILE]\n"
                 "                      [--exec-tier {precise,dbt}]\n");
    return 1;
  }

  apps::cordic::CordicRunConfig design;
  design.num_pes = options.num_pes;
  design.items = options.items;
  design.set_size = options.items;  // one FSL batch per run
  const auto [x, y] =
      apps::cordic::make_cordic_dataset(options.items, 0x51D);

  // Every experiment builds a fresh self-contained system; a non-null
  // plan is armed onto it before the run.
  const iss::ExecTier exec_tier = options.exec_tier;
  const fault::SystemFactory factory =
      [&design, &x, &y, exec_tier](const fault::FaultPlan* plan)
      -> Expected<sim::SimSystem> {
    Expected<sim::SimSystem> built =
        apps::cordic::make_cordic_system(design, x, y);
    if (!built.ok()) return built;
    sim::SimSystem system = std::move(built).value();
    // The tier knob rides through to every sampled system; outcomes are
    // tier-independent (execution tiers are bit-identical, DESIGN.md §12).
    system.cpu().set_exec_tier(exec_tier);
    if (plan != nullptr) {
      if (const Status status = system.arm_fault(*plan); !status.ok) {
        return Expected<sim::SimSystem>::failure(status.message);
      }
    }
    return system;
  };
  const fault::OutputExtractor extract = [&options](sim::SimSystem& system) {
    std::vector<Word> outputs;
    outputs.reserve(options.items);
    for (u32 i = 0; i < options.items; ++i) {
      outputs.push_back(system.word("results", i));
    }
    return outputs;
  };

  // Size the trigger window from the golden run so sampled cycles always
  // land inside the execution.
  fault::CampaignConfig config;
  config.seed = options.seed;
  config.experiments = options.experiments;
  config.threads = options.threads;
  config.max_cycles = Cycle{1} << 24;
  {
    const auto golden =
        fault::run_golden(factory, extract, config.max_cycles);
    if (!golden.ok()) {
      std::fprintf(stderr, "%s\n", golden.error().c_str());
      return 1;
    }
    config.space.max_trigger_cycle = golden.value().cycles;
  }
  config.space.mem_base = 0;
  config.space.mem_bytes = 4 * 1024;  // program text + data + results
  config.space.registers = 32;
  config.space.to_hw_channels = {0};
  config.space.from_hw_channels = {0};
  config.space.opb = false;

  std::printf("fault campaign: %u experiments, seed %llu, CORDIC P=%u "
              "(%u items)\n",
              options.experiments,
              static_cast<unsigned long long>(options.seed), options.num_pes,
              options.items);

  Stopwatch watch;
  const auto report = fault::run_campaign(config, factory, extract);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.error().c_str());
    return 1;
  }
  const double seconds = watch.elapsed_seconds();
  const fault::CampaignReport& result = report.value();

  std::printf("golden run: %llu cycles\n",
              static_cast<unsigned long long>(result.golden_cycles));
  std::printf("outcomes: masked %u, sdc %u, hang %u, trap %u"
              " (%u build failures) in %.2f s\n",
              result.total(fault::Outcome::kMasked),
              result.total(fault::Outcome::kSdc),
              result.total(fault::Outcome::kHang),
              result.total(fault::Outcome::kTrap), result.build_failures,
              seconds);

  if (!options.json_path.empty()) {
    std::FILE* out = std::fopen(options.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", options.json_path.c_str());
      return 1;
    }
    const std::string json = result.to_json();
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote JSON report to %s\n", options.json_path.c_str());
  }
  return 0;
}
