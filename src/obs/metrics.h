#ifndef STHIST_OBS_METRICS_H_
#define STHIST_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sthist::obs {

/// \file
/// Structured observability: a registry of named metrics updated through
/// lock-free atomic cells (DESIGN.md §13).
///
/// Design constraints, in order:
///  1. *Never* perturb the instrumented computation. Metrics are counters,
///     gauges, and latency observations — no instrumentation point feeds back
///     into an estimate or a refinement decision, so the bitwise-determinism
///     contracts of DESIGN.md §9–§11 are untouched (tests/obs_test.cc holds
///     an instrumented STHoles to bit-identity against an uninstrumented
///     twin).
///  2. Near-zero cost when disabled. A disabled registry (the null object
///     returned by MetricsRegistry::Disabled(), also the process-wide default
///     of GlobalMetrics()) hands out handles whose cell pointer is null; an
///     update through such a handle is one predictable branch, with no
///     allocation, no lock, and no clock read (ScopedTimer checks
///     enabled() before touching the clock).
///  3. Lock-cheap when enabled. Registration (name → cell lookup) takes the
///     registry mutex once per handle, typically at component construction;
///     every subsequent update is a relaxed atomic on the metric's own cell.
///
/// Metric names follow `layer.component.name` (e.g.
/// "histogram.stholes.drills", "serve.fleet.publish_seconds"); see
/// DESIGN.md §13 for the naming and cardinality rules.

class MetricsRegistry;

/// Monotonic counter handle. Copyable, trivially destructible; a
/// default-constructed handle is disabled and ignores updates.
class Counter {
 public:
  Counter() = default;

  void Inc(uint64_t n = 1) const {
    if (cell_ != nullptr) cell_->fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t value() const {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }

  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<uint64_t>* cell) : cell_(cell) {}

  std::atomic<uint64_t>* cell_ = nullptr;
};

/// Point-in-time gauge handle (queue depth, staleness, epoch). Same handle
/// semantics as Counter.
class Gauge {
 public:
  Gauge() = default;

  void Set(double v) const {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }

  void Add(double d) const {
    if (cell_ != nullptr) cell_->fetch_add(d, std::memory_order_relaxed);
  }

  double value() const {
    return cell_ == nullptr ? 0.0 : cell_->load(std::memory_order_relaxed);
  }

  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}

  std::atomic<double>* cell_ = nullptr;
};

/// Fixed bucket layout shared by every latency histogram: upper bounds in
/// seconds, powers of 4 from 1µs, plus one overflow bucket. Fixed buckets
/// keep Observe() allocation-free and make cross-run artifacts comparable.
inline constexpr size_t kLatencyBuckets = 14;
inline constexpr std::array<double, kLatencyBuckets - 1> kLatencyBounds = {
    1e-6,       4e-6,       1.6e-5,    6.4e-5,   2.56e-4,  1.024e-3, 4.096e-3,
    1.6384e-2,  6.5536e-2,  0.262144,  1.048576, 4.194304, 16.777216};

/// Latency histogram handle: fixed log-scale buckets plus count / sum / max.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;

  /// Records one observation of `seconds`. Non-finite or negative
  /// observations land in the first bucket (they indicate a broken clock,
  /// not a fast operation, but must never throw off the instrumented code).
  void Observe(double seconds) const;

  uint64_t count() const;
  double sum_seconds() const;
  double max_seconds() const;
  /// Per-bucket counts, index-aligned with kLatencyBounds (+ overflow last).
  std::array<uint64_t, kLatencyBuckets> bucket_counts() const;

  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  struct Cell {
    std::array<std::atomic<uint64_t>, kLatencyBuckets> counts{};
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum_seconds{0.0};
    std::atomic<double> max_seconds{0.0};
  };
  explicit LatencyHistogram(Cell* cell) : cell_(cell) {}

  Cell* cell_ = nullptr;
};

/// Value snapshot of one registry, for programmatic inspection and export.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct LatencyValue {
    std::string name;
    uint64_t count = 0;
    double sum_seconds = 0.0;
    double max_seconds = 0.0;
    std::array<uint64_t, kLatencyBuckets> buckets{};
  };
  // Each list is sorted by name, so exports are deterministic.
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<LatencyValue> latencies;

  size_t total_metrics() const {
    return counters.size() + gauges.size() + latencies.size();
  }

  /// JSON object {"counters":{...},"gauges":{...},"latencies":{...}}.
  /// Latency buckets serialize as [[upper_bound_or_null, count], ...] with
  /// null marking the overflow bucket. This is the schema `--metrics-json`
  /// files and BENCH_*.json artifacts carry (checked by CI's perf-smoke job).
  std::string ToJson() const;

  /// Prometheus-flavoured plain text ("name value" lines, histograms
  /// expanded to _count/_sum/_max/_bucket{le=...}), the `/metrics`-style dump
  /// `sthist_cli serve-sim` prints.
  std::string ToText() const;
};

/// Registry of named metrics. One registry per observability domain — a CLI
/// invocation, a service instance, a test — with components receiving a
/// `MetricsRegistry*` (or defaulting to GlobalMetrics()).
///
/// Thread safety: handle registration and snapshots are mutex-guarded;
/// updates through handles are lock-free relaxed atomics. Cells live in
/// deques and are never moved or freed before the registry dies, so handles
/// stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The shared null object: a disabled registry whose handles ignore
  /// updates. Requesting a handle from it performs no allocation and takes
  /// no lock (tests/obs_test.cc checks the zero-allocation property).
  static MetricsRegistry* Disabled();

  bool enabled() const { return enabled_; }

  /// Finds or creates the named metric and returns a lock-free handle.
  /// Repeated requests for one name return handles onto the same cell, which
  /// is also how clones of an instrumented histogram aggregate into their
  /// source's metrics. Requesting a name already registered as a different
  /// metric kind aborts.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  LatencyHistogram latency(std::string_view name);

  /// Consistent-enough value snapshot: each cell is read atomically, the set
  /// of metrics is read under the registry mutex. Counters racing with the
  /// snapshot can be one event apart, exactly like FleetStats.
  MetricsSnapshot Snapshot() const;

  /// Snapshot().ToJson() / Snapshot().ToText() conveniences.
  std::string ToJson() const { return Snapshot().ToJson(); }
  std::string ToText() const { return Snapshot().ToText(); }

 private:
  struct Named {
    std::string name;
  };
  struct CounterEntry : Named {
    std::atomic<uint64_t> cell{0};
  };
  struct GaugeEntry : Named {
    std::atomic<double> cell{0.0};
  };
  struct LatencyEntry : Named {
    LatencyHistogram::Cell cell;
  };

  explicit MetricsRegistry(bool enabled) : enabled_(enabled) {}

  const bool enabled_ = true;
  mutable std::mutex mutex_;
  // Deques: entries never relocate, so handles handed out earlier survive
  // later registrations.
  std::deque<CounterEntry> counters_;
  std::deque<GaugeEntry> gauges_;
  std::deque<LatencyEntry> latencies_;
};

/// Process-wide default registry, used by components not handed an explicit
/// one. Starts as the disabled null object, so an unconfigured process pays
/// only the null-handle branch; entry points that want metrics (the CLI's
/// --metrics-json, the bench harnesses) install a real registry once at
/// startup. Never returns nullptr.
MetricsRegistry* GlobalMetrics();

/// Installs `registry` as the process-wide default (nullptr restores the
/// disabled null object). Handles already resolved keep pointing at their
/// original registry; install before constructing instrumented components.
/// Not synchronized against concurrent GlobalMetrics() users — call during
/// single-threaded startup.
void SetGlobalMetrics(MetricsRegistry* registry);

}  // namespace sthist::obs

#endif  // STHIST_OBS_METRICS_H_
