#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

u64 derive_seed(u64 seed, u64 stream) {
  u64 z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t lo = values.size() / 20;
  const std::size_t hi = values.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

i32 Tracer::open(const char* name, u64 op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto index = static_cast<i32>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::close(i32 index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end_ns != 0 && name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"parent\":" << span.parent << ",\"op\":" << span.op << "}\n";
  }
  return static_cast<bool>(out);
}

void Failures::fail(u64 op, const std::string& message) {
  if (printed_ < 200) {
    std::fprintf(stderr, "perfbench: op %llu failed: %s\n",
                 static_cast<unsigned long long>(op), message.c_str());
    ++printed_;
  }
  if (op == last_failed_op_) return;
  last_failed_op_ = op;
  ++failed_;
}

long long proc_status(long long pid, const std::string& key) {
  std::ifstream in("/proc/" + (pid == 0 ? std::string("self")
                                         : std::to_string(pid)) +
                   "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      std::istringstream fields(line.substr(key.size() + 1));
      long long value = -1;
      fields >> value;
      return value;
    }
  }
  return -1;
}

}  // namespace perfbench
