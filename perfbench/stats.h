#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Raw per-operation samples, the percentiles taken from them, and the report
// a run prints: human-readable lines, then one JSON object as the last line
// of standard output.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Raw samples of one per-operation quantity, kept in the order taken.
/// Percentiles use the nearest-rank rule; nothing is bucketed.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }

  /// q in (0, 1]; 0 when there are no samples.
  double Percentile(double q) const;
  double Mean() const;
  double Sum() const;

  /// Samples ranked beyond the q-th percentile of n samples.
  static size_t Beyond(double q, size_t n);

 private:
  std::vector<double> values_;
};

/// Samples that must rank beyond a p99 for it to be reported.
inline constexpr size_t kMinBeyondP99 = 10;

/// All samples of `parts` in one.
Samples Pooled(const std::vector<Samples>& parts);

/// Median of a handful of values (used for repeated set-up timings).
double Median(std::vector<double> values);

/// What one run prints. Metrics keep insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  /// Sets `<prefix>_p50_<unit>` and `<prefix>_p99_<unit>` from samples
  /// recorded in nanoseconds, and prints both with the sample count. Both
  /// are nearest-rank percentiles of all samples. The p99 is set only when
  /// at least kMinBeyondP99 samples rank beyond it; otherwise the line says
  /// it is unresolved and the metric is left out. Without samples (a path
  /// the workload does not take) both read 0.
  void Latency(const std::string& prefix, const Samples& samples,
               const std::string& unit);
  /// The same over the samples of every part (one per thread) pooled.
  void Latency(const std::string& prefix, const std::vector<Samples>& parts,
               const std::string& unit) {
    Latency(prefix, Pooled(parts), unit);
  }

  /// Marks the run incorrect and prints why (to stderr).
  void Fail(const std::string& why);

  /// Prints an informational line (to stdout, before the JSON).
  void Note(const std::string& line);

  bool correct() const { return correct_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Human-readable metric lines, then the JSON object as the last line.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  bool correct_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
