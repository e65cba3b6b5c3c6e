#include "eval/runner.h"

#include <chrono>
#include <limits>
#include <optional>

#include "core/check.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "obs/trace.h"
#include "eval/metrics.h"
#include "histogram/census.h"
#include "histogram/registry.h"
#include "histogram/trivial.h"

namespace sthist {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Roles for DeriveSeed: each experiment cell owns two independent random
// streams keyed off its single workload_seed.
constexpr uint64_t kTrainStream = 0;
constexpr uint64_t kSimStream = 1;

}  // namespace

Experiment::Experiment(GeneratedData generated)
    : generated_(std::move(generated)), executor_(generated_.data) {}

const Experiment::ClusterCacheEntry& Experiment::ClusterEntry(
    const MineClusConfig& config) {
  ClusterCacheEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(cluster_cache_mutex_);
    for (ClusterCacheEntry& candidate : cluster_cache_) {
      if (candidate.config == config) {
        entry = &candidate;
        break;
      }
    }
    if (entry == nullptr) {
      entry = &cluster_cache_.emplace_back();
      entry->config = config;
    }
  }
  // Cluster outside the cache-wide lock so distinct configs mine in
  // parallel; the entry's once_flag makes concurrent same-config callers
  // wait for the single clustering run instead of duplicating it. Safe
  // because deque entries never relocate.
  std::call_once(entry->once, [&] {
    auto start = std::chrono::steady_clock::now();
    entry->clusters = RunMineClus(generated_.data, generated_.domain, config);
    entry->seconds = SecondsSince(start);
  });
  return *entry;
}

const std::vector<SubspaceCluster>& Experiment::Clusters(
    const MineClusConfig& config) {
  return ClusterEntry(config).clusters;
}

std::pair<Workload, Workload> Experiment::MakeWorkloads(
    const ExperimentConfig& config) const {
  WorkloadConfig wc;
  wc.volume_fraction = config.volume_fraction;
  wc.centers = config.centers;

  // Train and sim streams are hash-derived from (workload_seed, role), not
  // workload_seed and workload_seed + 1: with the +1 scheme, a sweep over
  // consecutive seeds evaluated one cell on the exact workload another cell
  // trained on (train/test contamination).
  wc.num_queries = config.train_queries;
  wc.seed = DeriveSeed(config.workload_seed, kTrainStream);
  Workload train = MakeWorkload(generated_.domain, wc, &generated_.data);

  wc.num_queries = config.sim_queries;
  wc.seed = DeriveSeed(config.workload_seed, kSimStream);
  Workload sim = MakeWorkload(generated_.domain, wc, &generated_.data);
  return {std::move(train), std::move(sim)};
}

ExperimentResult Experiment::Run(const ExperimentConfig& config) {
  auto [train, sim] = MakeWorkloads(config);
  return RunWithWorkloads(config, train, sim);
}

ExperimentResult Experiment::RunWithWorkloads(const ExperimentConfig& config,
                                              const Workload& train,
                                              const Workload& sim) {
  STHIST_CHECK(!sim.empty());
  ExperimentResult result;

  // Estimator construction goes through the registry (DESIGN.md §18): every
  // registered family runs this pipeline by name. A bad name or missing
  // input is a programming error at this layer — the CLI validates
  // user-supplied names before building configs.
  HistogramConfig hist_config;
  hist_config.domain = generated_.domain;
  hist_config.total_tuples = total_tuples();
  hist_config.data = &generated_.data;
  hist_config.buckets = config.buckets;
  hist_config.seed = config.workload_seed;
  StatusOr<std::unique_ptr<Histogram>> made =
      MakeHistogram(config.estimator, hist_config);
  STHIST_CHECK_MSG(made.ok(), "MakeHistogram(%s): %s",
                   config.estimator.c_str(),
                   made.status().message().c_str());
  Histogram& hist = *made.value();

  if (config.initialize) {
    const ClusterCacheEntry& entry = ClusterEntry(config.mineclus);
    // Clusters are cached; report the cost of the original run.
    result.clustering_seconds = entry.seconds;
    result.clusters_found = entry.clusters.size();
    result.clusters_fed =
        InitializeHistogram(entry.clusters, generated_.domain, executor_,
                            config.initializer, &hist);
  }

  // With fault injection on, train on corrupted query boxes and learn from
  // a corrupted feedback oracle; measurement below stays against the true
  // executor on the clean simulation workload.
  const bool inject = config.faults.rate > 0.0;
  Workload faulty_train;
  std::optional<FaultyOracle> faulty_oracle;
  if (inject) {
    faulty_train = CorruptWorkload(train, generated_.domain, config.faults);
    faulty_oracle.emplace(executor_, config.faults);
  }
  const Workload& train_used = inject ? faulty_train : train;
  const CardinalityOracle& feedback =
      inject ? static_cast<const CardinalityOracle&>(*faulty_oracle)
             : static_cast<const CardinalityOracle&>(executor_);

  auto train_start = std::chrono::steady_clock::now();
  if (!train_used.empty()) Train(&hist, train_used, feedback);
  result.train_seconds = SecondsSince(train_start);

  auto sim_start = std::chrono::steady_clock::now();
  result.mae = SimulateAndMeasure(&hist, sim, executor_, feedback,
                                  config.learn_during_sim);
  result.sim_seconds = SecondsSince(sim_start);

  TrivialHistogram trivial(generated_.domain, total_tuples());
  result.trivial_mae = MeanAbsoluteError(trivial, sim, executor_);
  // A zero-error trivial baseline leaves nothing to normalize against;
  // report NaN (rendered "n/a") rather than a fake perfect 0.0.
  result.nae = result.trivial_mae > 0.0
                   ? result.mae / result.trivial_mae
                   : std::numeric_limits<double>::quiet_NaN();

  result.final_buckets = hist.bucket_count();
  // The subspace census is an STHoles bucket-tree notion; other estimator
  // families report 0.
  if (const auto* stholes = dynamic_cast<const STHoles*>(&hist)) {
    result.subspace_buckets = CensusSubspaceBuckets(*stholes).subspace_buckets;
  }
  result.robustness = hist.robustness();
  if (faulty_oracle.has_value()) {
    result.faults_injected = faulty_oracle->faults_injected();
  }
  return result;
}

std::vector<ExperimentResult> RunSweep(Experiment& experiment,
                                       std::span<const ExperimentConfig> configs,
                                       size_t threads) {
  std::vector<ExperimentResult> results(configs.size());
  obs::MetricsRegistry* reg = obs::GlobalMetrics();
  obs::Counter cells_metric = reg->counter("eval.sweep.cells");
  obs::LatencyHistogram cell_seconds = reg->latency("eval.sweep.cell_seconds");
  // Index-ordered aggregation: worker i writes only slot i, so the output
  // order (and content — see the determinism contract in the header) is
  // independent of scheduling.
  ParallelFor(configs.size(), threads, [&](size_t i) {
    obs::ScopedTimer cell_timer(cell_seconds);
    results[i] = experiment.Run(configs[i]);
    cells_metric.Inc();
  });
  return results;
}

}  // namespace sthist
