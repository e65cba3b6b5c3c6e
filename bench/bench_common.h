#ifndef STHIST_BENCH_BENCH_COMMON_H_
#define STHIST_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "eval/runner.h"
#include "obs/metrics.h"

namespace sthist::bench {

/// Approximate p99 from the fixed log-scale latency buckets: the upper bound
/// of the bucket holding the 99th-percentile observation, but never more
/// than the largest observation (also the answer for the overflow bucket).
inline double ApproxP99Seconds(
    const obs::MetricsSnapshot::LatencyValue& latency) {
  if (latency.count == 0) return 0.0;
  const uint64_t target = (latency.count * 99 + 99) / 100;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < obs::kLatencyBounds.size(); ++b) {
    cumulative += latency.buckets[b];
    if (cumulative >= target) {
      return std::min(obs::kLatencyBounds[b], latency.max_seconds);
    }
  }
  return latency.max_seconds;
}

/// Command-line knobs shared by every harness, parsed by one function so the
/// flags mean the same thing everywhere (DESIGN.md §13 for --metrics-json).
struct BenchOptions {
  /// Worker threads for sweeps/batching (0 = hardware concurrency).
  size_t threads = 0;
  /// Where to write the BENCH_*.json artifact ("" = don't).
  std::string metrics_json;
};

/// Parses the shared flags (--threads N, --metrics-json PATH)
/// out of argv, removing each one (and its value) in place and
/// decrementing *argc; anything unrecognized is left for the caller —
/// google-benchmark mains pass the remainder to benchmark::Initialize. Also
/// installs the process-wide metrics registry (obs::GlobalMetrics()), so
/// every instrumented component constructed afterwards records into the
/// artifact.
BenchOptions ExtractBenchOptions(int* argc, char** argv);

/// Strict variant for plain harnesses: anything left over after extraction
/// is a usage error (prints to stderr, exits 2).
BenchOptions ParseBenchOptions(int argc, char** argv);

/// Removes `flag N` from argv like ExtractBenchOptions and returns N as a
/// non-negative integer (0 when absent; exits 2 when malformed): for a flag
/// only one harness reads, taken out before ParseBenchOptions sees argv.
uint64_t ExtractCountFlag(int* argc, char** argv, const char* flag);

/// Writes the bench artifact to options.metrics_json:
///   {"bench": <name>, "summary": {...}, "metrics": <registry snapshot>}
/// No-op (returning true) when no path was requested; returns false after
/// printing to stderr when the write fails, so mains can exit non-zero.
bool WriteBenchArtifact(
    const BenchOptions& options, const std::string& name,
    const std::vector<std::pair<std::string, double>>& summary);

/// Bench scale knobs. Defaults run every harness in seconds-to-a-minute;
/// setting the environment variable STHIST_FULL=1 switches to the paper's
/// workload sizes (1,000 training + 1,000 simulation queries, full dataset
/// cardinalities) at correspondingly longer runtimes.
struct Scale {
  bool full = false;
  /// Worker threads for experiment-cell sweeps (--threads N on the bench
  /// command line; 0 = hardware concurrency). Results are identical at any
  /// thread count — see the RunSweep determinism contract.
  size_t threads = 0;
  size_t train_queries = 200;
  size_t sim_queries = 200;
  size_t sky_tuples = 100000;
  size_t gauss_cluster_tuples = 100000;
  size_t gauss_noise_tuples = 10000;
  size_t heavy_extra_queries = 2000;
  size_t crossnd_cluster_tuples_4d = 40000;
  size_t crossnd_cluster_tuples_5d = 60000;
  /// Bucket budgets swept by the figure harnesses; the paper's full
  /// {50,100,150,200,250} under STHIST_FULL=1, a 3-point sweep by default.
  std::vector<size_t> bucket_sweep = {50, 100, 250};
};

/// Reads the scale from the environment (STHIST_FULL=1 for paper scale)
/// and, when argv is provided, the command line via ParseBenchOptions.
Scale GetScale(int argc = 0, char** argv = nullptr);

/// Same, from already-parsed options (harnesses that also need the options
/// themselves call ParseBenchOptions once and use this overload).
Scale GetScale(const BenchOptions& options);

/// Canonical dataset builders at bench scale.
GeneratedData BenchCross();
GeneratedData BenchCrossNd(size_t dim, const Scale& scale);
GeneratedData BenchGauss(const Scale& scale);
GeneratedData BenchSky(const Scale& scale);

/// MineClus parameters tuned per dataset family (the defaults the paper's
/// accuracy experiments effectively use: dense clusters, not too small).
MineClusConfig CrossMineClus();
MineClusConfig GaussMineClus();
MineClusConfig SkyMineClus();

/// One experiment variant within a figure (a line in the plot).
struct Series {
  std::string name;
  bool initialize = false;
  bool reversed = false;
  /// Paper values (approximate, digitized from the figure) for the same
  /// bucket counts, for shape comparison. Empty when the paper gives none.
  std::vector<double> paper_nae;
};

/// A bucket-count sweep reproducing one figure. Each series' `paper_nae`
/// entries are indexed against `paper_bucket_counts`; measured bucket counts
/// not present there print "-" in the paper column.
struct FigureSpec {
  std::string title;
  std::vector<size_t> bucket_counts = {50, 100, 250};
  std::vector<size_t> paper_bucket_counts = {50, 100, 150, 200, 250};
  ExperimentConfig base;
  std::vector<Series> series;
  /// Worker threads for the cell sweep (0 = hardware concurrency).
  /// Callers copy Scale::threads here.
  size_t threads = 0;
};

/// Runs the sweep — all (bucket count x series) cells concurrently via
/// RunSweep — and prints one table: rows = bucket counts, columns =
/// measured NAE per series plus the paper's approximate value.
void RunFigure(Experiment* experiment, const FigureSpec& spec);

/// Prints the standard harness banner (title + scale note).
void PrintBanner(const std::string& title, const Scale& scale);

}  // namespace sthist::bench

#endif  // STHIST_BENCH_BENCH_COMMON_H_
