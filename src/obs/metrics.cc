#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sthist::obs {

namespace {

// Shortest round-trippable formatting for doubles in JSON/text exports.
std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Minimal JSON string escaping; metric names are dotted identifiers, so this
// is belt-and-braces for the characters that would break the document.
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

void LatencyHistogram::Observe(double seconds) const {
  if (cell_ == nullptr) return;
  if (!std::isfinite(seconds) || seconds < 0.0) seconds = 0.0;
  size_t bucket = 0;
  while (bucket < kLatencyBounds.size() && seconds > kLatencyBounds[bucket]) {
    ++bucket;
  }
  cell_->counts[bucket].fetch_add(1, std::memory_order_relaxed);
  cell_->count.fetch_add(1, std::memory_order_relaxed);
  cell_->sum_seconds.fetch_add(seconds, std::memory_order_relaxed);
  double seen = cell_->max_seconds.load(std::memory_order_relaxed);
  while (seconds > seen && !cell_->max_seconds.compare_exchange_weak(
                               seen, seconds, std::memory_order_relaxed)) {
  }
}

uint64_t LatencyHistogram::count() const {
  return cell_ == nullptr ? 0 : cell_->count.load(std::memory_order_relaxed);
}

double LatencyHistogram::sum_seconds() const {
  return cell_ == nullptr ? 0.0
                          : cell_->sum_seconds.load(std::memory_order_relaxed);
}

double LatencyHistogram::max_seconds() const {
  return cell_ == nullptr ? 0.0
                          : cell_->max_seconds.load(std::memory_order_relaxed);
}

std::array<uint64_t, kLatencyBuckets> LatencyHistogram::bucket_counts() const {
  std::array<uint64_t, kLatencyBuckets> out{};
  if (cell_ == nullptr) return out;
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    out[i] = cell_->counts[i].load(std::memory_order_relaxed);
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry* MetricsRegistry::Disabled() {
  static MetricsRegistry disabled(false);
  return &disabled;
}

Counter MetricsRegistry::counter(std::string_view name) {
  if (!enabled_) return Counter();
  std::lock_guard<std::mutex> lock(mutex_);
  for (CounterEntry& entry : counters_) {
    if (entry.name == name) return Counter(&entry.cell);
  }
  CounterEntry& entry = counters_.emplace_back();
  entry.name = std::string(name);
  return Counter(&entry.cell);
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  if (!enabled_) return Gauge();
  std::lock_guard<std::mutex> lock(mutex_);
  for (GaugeEntry& entry : gauges_) {
    if (entry.name == name) return Gauge(&entry.cell);
  }
  GaugeEntry& entry = gauges_.emplace_back();
  entry.name = std::string(name);
  return Gauge(&entry.cell);
}

LatencyHistogram MetricsRegistry::latency(std::string_view name) {
  if (!enabled_) return LatencyHistogram();
  std::lock_guard<std::mutex> lock(mutex_);
  for (LatencyEntry& entry : latencies_) {
    if (entry.name == name) return LatencyHistogram(&entry.cell);
  }
  LatencyEntry& entry = latencies_.emplace_back();
  entry.name = std::string(name);
  return LatencyHistogram(&entry.cell);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const CounterEntry& entry : counters_) {
    snap.counters.push_back(
        {entry.name, entry.cell.load(std::memory_order_relaxed)});
  }
  snap.gauges.reserve(gauges_.size());
  for (const GaugeEntry& entry : gauges_) {
    snap.gauges.push_back(
        {entry.name, entry.cell.load(std::memory_order_relaxed)});
  }
  snap.latencies.reserve(latencies_.size());
  for (const LatencyEntry& entry : latencies_) {
    MetricsSnapshot::LatencyValue value;
    value.name = entry.name;
    value.count = entry.cell.count.load(std::memory_order_relaxed);
    value.sum_seconds = entry.cell.sum_seconds.load(std::memory_order_relaxed);
    value.max_seconds = entry.cell.max_seconds.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kLatencyBuckets; ++i) {
      value.buckets[i] = entry.cell.counts[i].load(std::memory_order_relaxed);
    }
    snap.latencies.push_back(std::move(value));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.latencies.begin(), snap.latencies.end(), by_name);
  return snap;
}

// ---------------------------------------------------------------------------
// Snapshot export
// ---------------------------------------------------------------------------

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const CounterValue& c : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonString(c.name) + ": " + std::to_string(c.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const GaugeValue& g : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonString(g.name) + ": " + FormatNumber(g.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"latencies\": {";
  first = true;
  for (const LatencyValue& l : latencies) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonString(l.name) + ": {\"count\": " +
           std::to_string(l.count) +
           ", \"sum_seconds\": " + FormatNumber(l.sum_seconds) +
           ", \"max_seconds\": " + FormatNumber(l.max_seconds) +
           ", \"buckets\": [";
    for (size_t i = 0; i < kLatencyBuckets; ++i) {
      if (i > 0) out += ", ";
      out += "[";
      out += i < kLatencyBounds.size() ? FormatNumber(kLatencyBounds[i])
                                       : std::string("null");
      out += ", " + std::to_string(l.buckets[i]) + "]";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const CounterValue& c : counters) {
    out += c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const GaugeValue& g : gauges) {
    out += g.name + " " + FormatNumber(g.value) + "\n";
  }
  for (const LatencyValue& l : latencies) {
    out += l.name + "_count " + std::to_string(l.count) + "\n";
    out += l.name + "_sum " + FormatNumber(l.sum_seconds) + "\n";
    out += l.name + "_max " + FormatNumber(l.max_seconds) + "\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kLatencyBuckets; ++i) {
      cumulative += l.buckets[i];
      std::string bound = i < kLatencyBounds.size()
                              ? FormatNumber(kLatencyBounds[i])
                              : std::string("+Inf");
      out += l.name + "_bucket{le=\"" + bound + "\"} " +
             std::to_string(cumulative) + "\n";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Global default registry
// ---------------------------------------------------------------------------

namespace {
std::atomic<MetricsRegistry*> g_global{nullptr};
}  // namespace

MetricsRegistry* GlobalMetrics() {
  MetricsRegistry* r = g_global.load(std::memory_order_acquire);
  return r == nullptr ? MetricsRegistry::Disabled() : r;
}

void SetGlobalMetrics(MetricsRegistry* registry) {
  g_global.store(registry, std::memory_order_release);
}

}  // namespace sthist::obs
