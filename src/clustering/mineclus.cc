#include "clustering/mineclus.h"

#include <algorithm>
#include <cmath>

#include "clustering/fptree.h"
#include "core/check.h"
#include "core/rng.h"
#include "obs/trace.h"

namespace sthist {

namespace {

/// Medoid samples evaluated per greedy round.
constexpr size_t kMedoidsPerRound = 8;

/// Stop after this many consecutive rounds without a qualifying cluster.
constexpr size_t kMaxFailedRounds = 4;

// A candidate cluster produced by one medoid evaluation.
struct Candidate {
  size_t medoid = 0;
  std::vector<int> dims;
  double score = -1.0;
};

// Collects the rows of `remaining` that lie within the medoid's window in
// every dimension of `dims`.
std::vector<size_t> CollectMembers(const Dataset& data,
                                   const std::vector<size_t>& remaining,
                                   size_t medoid,
                                   const std::vector<int>& dims,
                                   const std::vector<double>& window) {
  std::vector<size_t> members;
  std::span<const double> m = data.row(medoid);
  for (size_t row : remaining) {
    std::span<const double> p = data.row(row);
    bool inside = true;
    for (int d : dims) {
      if (std::abs(p[d] - m[d]) > window[d]) {
        inside = false;
        break;
      }
    }
    if (inside) members.push_back(row);
  }
  return members;
}

// Merges clusters that share the same relevant dimensions and whose core
// boxes intersect; member sets are concatenated and the score recomputed.
void MergeSimilar(const Dataset& data, double gain,
                  std::vector<SubspaceCluster>* clusters) {
  bool merged = true;
  while (merged) {
    merged = false;
    for (size_t i = 0; i < clusters->size() && !merged; ++i) {
      for (size_t j = i + 1; j < clusters->size() && !merged; ++j) {
        SubspaceCluster& a = (*clusters)[i];
        SubspaceCluster& b = (*clusters)[j];
        if (a.relevant_dims != b.relevant_dims) continue;
        if (!a.core_box.Intersects(b.core_box)) continue;
        a.members.insert(a.members.end(), b.members.begin(), b.members.end());
        a.core_box = data.BoundsOf(a.members);
        a.score = static_cast<double>(a.members.size()) *
                  std::pow(gain, static_cast<double>(a.relevant_dims.size()));
        clusters->erase(clusters->begin() + static_cast<ptrdiff_t>(j));
        merged = true;
      }
    }
  }
}

}  // namespace

Status Validate(const MineClusConfig& config) {
  if (!(config.alpha > 0.0 && config.alpha <= 1.0)) {
    return StatusF(StatusCode::kInvalidArgument,
                   "alpha must be in (0,1], got %g", config.alpha);
  }
  if (!(config.beta > 0.0 && config.beta <= 1.0)) {
    return StatusF(StatusCode::kInvalidArgument,
                   "beta must be in (0,1], got %g", config.beta);
  }
  if (!(config.width_fraction > 0.0)) {
    return StatusF(StatusCode::kInvalidArgument,
                   "width_fraction must be positive, got %g",
                   config.width_fraction);
  }
  return Status::Ok();
}

std::vector<SubspaceCluster> RunMineClus(const Dataset& data,
                                         const Box& domain,
                                         const MineClusConfig& config) {
  STHIST_CHECK(data.dim() == domain.dim());
  STHIST_CHECK(Validate(config).ok());

  obs::MetricsRegistry* reg = obs::GlobalMetrics();
  obs::Counter rounds_metric = reg->counter("clustering.mineclus.rounds");
  obs::Counter failed_metric =
      reg->counter("clustering.mineclus.failed_rounds");
  obs::Counter clusters_metric = reg->counter("clustering.mineclus.clusters");
  obs::ScopedTimer mine_timer(
      reg->latency("clustering.mineclus.mine_seconds"));

  const size_t n = data.size();
  const size_t dim = data.dim();
  const double min_support = config.alpha * static_cast<double>(n);
  const double gain = 1.0 / config.beta;

  std::vector<double> window(dim);
  for (size_t d = 0; d < dim; ++d) {
    window[d] = config.width_fraction * domain.Extent(d);
  }

  Rng rng(config.seed);
  std::vector<size_t> remaining(n);
  for (size_t i = 0; i < n; ++i) remaining[i] = i;

  std::vector<SubspaceCluster> clusters;
  size_t failed_rounds = 0;

  while (clusters.size() < config.max_clusters &&
         static_cast<double>(remaining.size()) >= min_support &&
         failed_rounds < kMaxFailedRounds) {
    rounds_metric.Inc();
    // Evaluate a sample of medoids; keep the best-quality dimension set.
    Candidate best;
    size_t samples = std::min(kMedoidsPerRound, remaining.size());
    std::vector<size_t> medoid_picks = rng.Sample(remaining.size(), samples);

    std::vector<WeightedTransaction> transactions;
    transactions.reserve(remaining.size());
    for (size_t pick : medoid_picks) {
      size_t medoid = remaining[pick];
      std::span<const double> m = data.row(medoid);

      transactions.clear();
      for (size_t row : remaining) {
        std::span<const double> p = data.row(row);
        WeightedTransaction t;
        for (size_t d = 0; d < dim; ++d) {
          if (std::abs(p[d] - m[d]) <= window[d]) {
            t.items.push_back(static_cast<int>(d));
          }
        }
        if (!t.items.empty()) transactions.push_back(std::move(t));
      }

      FpTree tree(transactions, dim, min_support);
      BestItemset found = tree.MineBest(gain, config.min_cluster_dims);
      if (found.score > best.score) {
        best.medoid = medoid;
        best.dims = found.items;
        best.score = found.score;
      }
    }

    if (best.score < 0.0) {
      ++failed_rounds;
      failed_metric.Inc();
      continue;
    }
    failed_rounds = 0;

    SubspaceCluster cluster;
    cluster.medoid = best.medoid;
    cluster.members =
        CollectMembers(data, remaining, best.medoid, best.dims, window);
    STHIST_CHECK(!cluster.members.empty());
    cluster.relevant_dims.assign(best.dims.begin(), best.dims.end());
    cluster.core_box = data.BoundsOf(cluster.members);
    cluster.score =
        static_cast<double>(cluster.members.size()) *
        std::pow(gain, static_cast<double>(cluster.relevant_dims.size()));
    clusters.push_back(std::move(cluster));
    clusters_metric.Inc();

    // Remove the cluster's members from the remaining pool.
    std::vector<bool> taken(n, false);
    for (size_t row : clusters.back().members) taken[row] = true;
    std::erase_if(remaining, [&taken](size_t row) { return taken[row]; });
  }

  if (config.merge_similar) MergeSimilar(data, gain, &clusters);

  std::sort(clusters.begin(), clusters.end(),
            [](const SubspaceCluster& a, const SubspaceCluster& b) {
              return a.score > b.score;
            });
  return clusters;
}

}  // namespace sthist
