#include "obs/metrics.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <string_view>
#include <utility>

namespace mbcosim::obs {

void Histogram::record(u64 value) noexcept {
  const auto bucket = static_cast<std::size_t>(std::bit_width(value));
  if (buckets_.size() <= bucket) buckets_.resize(bucket + 1, 0);
  buckets_[bucket] += 1;
  count_ += 1;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void Histogram::save_state(ckpt::Writer& writer) const {
  writer.write_u64(count_);
  writer.write_u64(sum_);
  writer.write_u64(min_);
  writer.write_u64(max_);
  writer.write_u64(buckets_.size());
  for (const u64 bucket : buckets_) writer.write_u64(bucket);
}

void Histogram::load_state(ckpt::Reader& reader) {
  count_ = reader.read_u64();
  sum_ = reader.read_u64();
  min_ = reader.read_u64();
  max_ = reader.read_u64();
  const u64 buckets = reader.read_u64();
  buckets_.clear();
  if (!reader.ok() || buckets > reader.remaining()) return;  // underrun
  buckets_.reserve(static_cast<std::size_t>(buckets));
  for (u64 i = 0; i < buckets; ++i) buckets_.push_back(reader.read_u64());
}

FslCounters& MetricsRegistry::fsl(const std::string& channel) {
  return fsl_[channel];
}

namespace {

/// The page keys of the registry's fixed counters and histograms; `self`
/// is a MetricsRegistry, const or not. The per-channel FSL keys, the
/// fault outcomes and opb.wait_cycles (present once the bus saw any
/// transaction, even at zero wait) are handled beside these tables.
template <typename Registry>
auto fixed_counters(Registry& self) {
  return std::array{std::pair{std::string_view("cpu.retired"), &self.cpu.retired},
                    std::pair{std::string_view("cpu.halts"), &self.cpu.halts},
                    std::pair{std::string_view("cpu.illegal"), &self.cpu.illegal},
                    std::pair{std::string_view("cpu.stall_cycles"),
                              &self.cpu.stall_cycles},
                    std::pair{std::string_view("opb.reads"), &self.opb.reads},
                    std::pair{std::string_view("opb.writes"), &self.opb.writes},
                    std::pair{std::string_view("engine.quiesce_skipped"),
                              &self.engine.quiesce_skipped},
                    std::pair{std::string_view("engine.deadlocks"),
                              &self.engine.deadlocks},
                    std::pair{std::string_view("fault.injects"),
                              &self.fault.injects}};
}

template <typename Registry>
auto fixed_histograms(Registry& self) {
  return std::array{
      std::pair{std::string_view("cpu.stall_run"), &self.cpu.stall_runs},
      std::pair{std::string_view("opb.wait"), &self.opb.wait}};
}

constexpr std::string_view kWaitCycles = "opb.wait_cycles";
constexpr std::string_view kOutcomePrefix = "fault.outcome.";
constexpr std::string_view kFslPrefix = "fsl.";

/// Splits "fsl.<channel>.<field>" into channel and field; false when
/// `name` has another shape.
bool split_fsl_key(std::string_view name, std::string_view& channel,
                   std::string_view& field) {
  const std::size_t dot = name.rfind('.');
  if (!name.starts_with(kFslPrefix) || dot == std::string_view::npos ||
      dot <= kFslPrefix.size()) {
    return false;
  }
  channel = name.substr(kFslPrefix.size(), dot - kFslPrefix.size());
  field = name.substr(dot + 1);
  return true;
}

}  // namespace

MetricsSnapshot MetricsRegistry::page() const {
  // A key is present iff its component touched it, with the names the
  // page has always used.
  MetricsSnapshot page;
  for (const auto& [name, value] : fixed_counters(*this)) {
    if (*value != 0) page.counters.emplace(name, *value);
  }
  if (opb.reads + opb.writes != 0) {
    page.counters.emplace(kWaitCycles, opb.wait_cycles);
  }
  for (const auto& [outcome, value] : fault.outcomes) {
    page.counters.emplace(std::string(kOutcomePrefix) + outcome, value);
  }
  for (const auto& [name, histogram] : fixed_histograms(*this)) {
    if (histogram->count() != 0) page.histograms.emplace(name, *histogram);
  }
  for (const auto& [channel, counters] : fsl_) {
    const std::string prefix = std::string(kFslPrefix) + channel;
    if (counters.push != 0) page.counters[prefix + ".push"] = counters.push;
    if (counters.pop != 0) page.counters[prefix + ".pop"] = counters.pop;
    if (counters.refused != 0) {
      page.counters[prefix + ".refused"] = counters.refused;
    }
    if (counters.occupancy.count() != 0) {
      page.histograms.emplace(prefix + ".occupancy", counters.occupancy);
    }
  }
  return page;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snapshot = page();
  // Account the in-flight stall run without mutating the registry.
  if (cpu.stall_run != 0) {
    snapshot.histograms["cpu.stall_run"].record(cpu.stall_run);
  }
  return snapshot;
}

void MetricsRegistry::save_state(ckpt::Writer& writer) const {
  const MetricsSnapshot saved = page();
  writer.write_u64(saved.counters.size());
  for (const auto& [name, value] : saved.counters) {
    writer.write_str(name);
    writer.write_u64(value);
  }
  writer.write_u64(saved.histograms.size());
  for (const auto& [name, histogram] : saved.histograms) {
    writer.write_str(name);
    histogram.save_state(writer);
  }
  writer.write_u64(cpu.stall_run);
}

u64* MetricsRegistry::counter_named(std::string_view name) {
  for (const auto& [key, value] : fixed_counters(*this)) {
    if (name == key) return value;
  }
  if (name == kWaitCycles) return &opb.wait_cycles;
  if (name.starts_with(kOutcomePrefix)) {
    return &fault.outcomes[std::string(name.substr(kOutcomePrefix.size()))];
  }
  std::string_view channel;
  std::string_view field;
  if (!split_fsl_key(name, channel, field)) return nullptr;
  FslCounters& counters = fsl(std::string(channel));
  if (field == "push") return &counters.push;
  if (field == "pop") return &counters.pop;
  if (field == "refused") return &counters.refused;
  return nullptr;
}

Histogram* MetricsRegistry::histogram_named(std::string_view name) {
  for (const auto& [key, histogram] : fixed_histograms(*this)) {
    if (name == key) return histogram;
  }
  std::string_view channel;
  std::string_view field;
  if (!split_fsl_key(name, channel, field) || field != "occupancy") {
    return nullptr;
  }
  return &fsl(std::string(channel)).occupancy;
}

bool MetricsRegistry::load_state(ckpt::Reader& reader) {
  cpu = CpuCounters{};
  opb = OpbCounters{};
  engine = EngineCounters{};
  fault = FaultCounters{};
  for (auto& [channel, counters] : fsl_) counters = FslCounters{};

  bool known = true;
  const u64 counters = reader.read_u64();
  for (u64 i = 0; i < counters && reader.ok(); ++i) {
    const std::string name = reader.read_str();
    const u64 value = reader.read_u64();
    if (u64* counter = counter_named(name)) {
      *counter = value;
    } else {
      known = false;
    }
  }
  const u64 histograms = reader.read_u64();
  for (u64 i = 0; i < histograms && reader.ok(); ++i) {
    const std::string name = reader.read_str();
    Histogram scratch;
    Histogram* histogram = histogram_named(name);
    if (histogram == nullptr) {
      known = false;
      histogram = &scratch;
    }
    histogram->load_state(reader);
  }
  cpu.stall_run = reader.read_u64();
  return known;
}

std::string MetricsSnapshot::to_string() const {
  std::string out;
  char buffer[160];
  for (const auto& [name, value] : counters) {
    std::snprintf(buffer, sizeof buffer, "%-28s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += buffer;
  }
  for (const auto& [name, histogram] : histograms) {
    std::snprintf(buffer, sizeof buffer,
                  "%-28s count=%llu min=%llu mean=%.1f max=%llu buckets=[",
                  name.c_str(),
                  static_cast<unsigned long long>(histogram.count()),
                  static_cast<unsigned long long>(histogram.min()),
                  histogram.mean(),
                  static_cast<unsigned long long>(histogram.max()));
    out += buffer;
    const auto& buckets = histogram.buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      std::snprintf(buffer, sizeof buffer, "%s%llu", i == 0 ? "" : " ",
                    static_cast<unsigned long long>(buckets[i]));
      out += buffer;
    }
    out += "]\n";
  }
  return out;
}

}  // namespace mbcosim::obs
