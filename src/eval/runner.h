#ifndef STHIST_EVAL_RUNNER_H_
#define STHIST_EVAL_RUNNER_H_

#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "clustering/mineclus.h"
#include "data/generators.h"
#include "histogram/stholes.h"
#include "init/initializer.h"
#include "testing/fault_injection.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {

/// One experiment cell: a histogram variant trained and evaluated on one
/// dataset/workload combination, reproducing the paper's simulation
/// methodology (§5.1: 1,000 training + 1,000 simulation queries; errors are
/// measured over the simulation queries only, with refinement continuing
/// unless disabled).
struct ExperimentConfig {
  /// Registry name of the estimator under test (histogram/registry.h). Every
  /// registered estimator runs through the same train/simulate/measure
  /// pipeline; self-tuning families learn from feedback, static families
  /// are built from the dataset and just measured.
  std::string estimator = "stholes";

  /// Synopsis budget (the paper sweeps 50..250 STHoles buckets; for the
  /// sampled families this is the sample size).
  size_t buckets = 100;

  size_t train_queries = 1000;
  size_t sim_queries = 1000;
  double volume_fraction = 0.01;
  CenterDistribution centers = CenterDistribution::kUniform;
  uint64_t workload_seed = 21;

  /// Whether to initialize from subspace clusters before training.
  bool initialize = false;
  InitializerConfig initializer;
  MineClusConfig mineclus;

  /// The paper's default keeps refining during simulation; Fig. 17 turns
  /// this off to isolate the effect of training volume.
  bool learn_during_sim = true;

  /// Fault injection (testing/fault_injection.h); rate 0 disables. When
  /// enabled, the training workload's query boxes and the refinement
  /// feedback oracle are adversarially corrupted, while accuracy is still
  /// measured against the true engine over the clean simulation workload —
  /// so the resulting NAE quantifies robustness, not measurement noise.
  FaultConfig faults;
};

/// Measured outcome of one experiment cell.
struct ExperimentResult {
  double mae = 0.0;          // Mean absolute error over simulation queries.
  double trivial_mae = 0.0;  // Same for the trivial histogram H0.
  /// mae / trivial_mae (paper eq. 10). NaN when the trivial baseline has
  /// zero error (nothing to normalize against) — a degenerate cell must not
  /// masquerade as a perfect histogram. Renderers print it as "n/a".
  double nae = 0.0;
  size_t final_buckets = 0;
  size_t subspace_buckets = 0;  // Census after simulation.
  size_t clusters_found = 0;
  size_t clusters_fed = 0;
  double clustering_seconds = 0.0;
  double train_seconds = 0.0;
  double sim_seconds = 0.0;
  /// Degradation counters the histogram accumulated (all zero on clean
  /// runs with well-formed workloads).
  RobustnessStats robustness;
  /// Corrupted oracle answers actually served during the run (0 when fault
  /// injection is disabled).
  size_t faults_injected = 0;
};

/// Shared state for a family of experiment cells over one dataset: owns the
/// dataset, its executor (k-d tree), and caches MineClus outputs per
/// distinct parameter set so bucket-budget sweeps don't re-cluster.
///
/// Thread safety: Run/RunWithWorkloads/Clusters/MakeWorkloads may be called
/// concurrently from any number of threads. The dataset and executor are
/// read-only after construction; the cluster cache is the only shared
/// mutable state and is mutex-guarded, with deque storage so returned
/// references stay valid for the Experiment's lifetime (RunSweep relies on
/// this).
class Experiment {
 public:
  explicit Experiment(GeneratedData generated);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  const GeneratedData& generated() const { return generated_; }
  const Dataset& data() const { return generated_.data; }
  const Box& domain() const { return generated_.domain; }
  const Executor& executor() const { return executor_; }
  double total_tuples() const {
    return static_cast<double>(generated_.data.size());
  }

  /// MineClus result for `config`, cached per distinct parameter set.
  /// The accompanying wall-clock cost of the (uncached) run is stored and
  /// reported through ExperimentResult::clustering_seconds. The returned
  /// reference stays valid for the Experiment's lifetime: entries live in a
  /// deque and are never moved or evicted. Concurrent callers with the same
  /// config cluster once; the others block until the entry is ready.
  const std::vector<SubspaceCluster>& Clusters(const MineClusConfig& config);

  /// Builds workloads from the config and runs one cell.
  ExperimentResult Run(const ExperimentConfig& config);

  /// Runs one cell against caller-provided workloads (used by the
  /// permutation / sensitivity experiments).
  ExperimentResult RunWithWorkloads(const ExperimentConfig& config,
                                    const Workload& train,
                                    const Workload& sim);

  /// Convenience: builds the (train, sim) pair the way Run does.
  std::pair<Workload, Workload> MakeWorkloads(
      const ExperimentConfig& config) const;

 private:
  struct ClusterCacheEntry {
    MineClusConfig config;
    std::once_flag once;  // Guards the one-time MineClus run below.
    std::vector<SubspaceCluster> clusters;
    double seconds = 0.0;
  };

  /// Finds or creates the cache entry for `config` and ensures its
  /// clustering has run (blocking on a concurrent run if one is in flight).
  const ClusterCacheEntry& ClusterEntry(const MineClusConfig& config);

  GeneratedData generated_;
  Executor executor_;
  /// Deque so entries never relocate: returned references survive later
  /// insertions (a std::vector here dangled them on reallocation). Guarded
  /// by cluster_cache_mutex_; the per-entry once_flag lets distinct configs
  /// cluster concurrently without holding the cache-wide lock.
  std::deque<ClusterCacheEntry> cluster_cache_;
  std::mutex cluster_cache_mutex_;
};

/// Runs every cell of `configs` and returns their results in input order,
/// fanning the cells out over `threads` workers (0 = hardware concurrency,
/// 1 = inline on the calling thread).
///
/// Determinism contract: every cell derives all its randomness from its own
/// config (workload seeds, MineClus seed, fault seed), so each slot of the
/// returned vector is bitwise-identical regardless of thread count or
/// scheduling — except the wall-clock fields (clustering_seconds,
/// train_seconds, sim_seconds), which measure real time and vary run to
/// run. Shared state is the Experiment's read-only dataset/executor plus
/// its mutex-guarded cluster cache.
std::vector<ExperimentResult> RunSweep(Experiment& experiment,
                                       std::span<const ExperimentConfig> configs,
                                       size_t threads = 0);

}  // namespace sthist

#endif  // STHIST_EVAL_RUNNER_H_
