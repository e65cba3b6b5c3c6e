#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

namespace {

// Zero-based index of the nearest-rank q-th percentile among n samples.
size_t RankIndex(double q, size_t n) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) -
         1;
}

}  // namespace

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  auto nth = sorted.begin() + RankIndex(q, sorted.size());
  std::nth_element(sorted.begin(), nth, sorted.end());
  return *nth;
}

size_t Samples::Beyond(double q, size_t n) {
  return n == 0 ? 0 : n - 1 - RankIndex(q, n);
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

Samples Pooled(const std::vector<Samples>& parts) {
  Samples all;
  for (const Samples& part : parts) all.Append(part);
  return all;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit};
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Latency(const std::string& prefix, const Samples& all,
                     const std::string& unit) {
  const double scale = unit == "s"    ? 1e-9
                       : unit == "ms" ? 1e-6
                       : unit == "us" ? 1e-3
                                      : 1.0;
  const size_t n = all.size();
  const double p50 = all.Percentile(0.50) * scale;
  Set(prefix + "_p50_" + unit, p50, unit);
  char line[256];
  if (n == 0) {
    Set(prefix + "_p99_" + unit, 0.0, unit);
    std::snprintf(line, sizeof(line), "%-24s no samples", prefix.c_str());
    notes_.push_back(line);
    return;
  }
  if (Samples::Beyond(0.99, n) >= kMinBeyondP99) {
    const double p99 = all.Percentile(0.99) * scale;
    Set(prefix + "_p99_" + unit, p99, unit);
    std::snprintf(line, sizeof(line), "%-24s p50 %.4g %s  p99 %.4g %s  (n=%zu)",
                  prefix.c_str(), p50, unit.c_str(), p99, unit.c_str(), n);
  } else {
    std::snprintf(line, sizeof(line),
                  "%-24s p50 %.4g %s  (n=%zu); p99 unresolved, fewer than "
                  "%zu samples beyond it: not reported",
                  prefix.c_str(), p50, unit.c_str(), n, kMinBeyondP99);
  }
  notes_.push_back(line);
  std::snprintf(line, sizeof(line),
                "%-24s p90 %.4g  p95 %.4g  p99.9 %.4g  max %.4g %s", "",
                all.Percentile(0.90) * scale, all.Percentile(0.95) * scale,
                all.Percentile(0.999) * scale, all.Percentile(1.0) * scale,
                unit.c_str());
  notes_.push_back(line);
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // A non-finite value is not JSON; Set already marked the run incorrect.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
