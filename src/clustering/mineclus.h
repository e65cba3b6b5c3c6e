#ifndef STHIST_CLUSTERING_MINECLUS_H_
#define STHIST_CLUSTERING_MINECLUS_H_

#include <cstdint>
#include <vector>

#include "core/box.h"
#include "core/status.h"
#include "data/dataset.h"

namespace sthist {

/// MineClus parameters (paper §5.2 "Clustering" and Table 2).
struct MineClusConfig {
  /// Minimum cluster density: a dimension set around a medoid only qualifies
  /// when at least alpha * |dataset| points fall into its window.
  double alpha = 0.01;

  /// Size-vs-dimensionality tradeoff of the quality function
  /// mu(|C|, |D|) = |C| * (1/beta)^|D|. Smaller beta favors more relevant
  /// dimensions.
  double beta = 0.25;

  /// Cluster window half-width per dimension, as a fraction of that
  /// dimension's domain extent: point q is "close" to medoid p in dimension
  /// d when |q_d - p_d| <= width_fraction * extent(d). (The paper quotes
  /// absolute widths on a [0,1000]-style domain; e.g. width=10 there is
  /// width_fraction=0.01 here.)
  double width_fraction = 0.05;

  /// Hard cap on the number of clusters returned.
  size_t max_clusters = 64;

  /// Minimum number of relevant dimensions per cluster.
  size_t min_cluster_dims = 1;

  /// Merge clusters that share the same relevant dimensions and whose core
  /// boxes overlap (MineClus's cluster-refinement step).
  bool merge_similar = true;

  uint64_t seed = 11;

  /// Compares every field, so Experiment's cluster cache, which keys on it,
  /// never serves one config's clusters for another.
  bool operator==(const MineClusConfig&) const = default;
};

/// Range checks on the settings above (alpha and beta in (0, 1], a positive
/// width); RunMineClus CHECKs them.
Status Validate(const MineClusConfig& config);

/// One projected (subspace) cluster found by MineClus.
struct SubspaceCluster {
  /// Dimensions the cluster is defined in ("used"/relevant dimensions).
  std::vector<size_t> relevant_dims;
  /// Row indices of the member tuples.
  std::vector<size_t> members;
  /// Tight minimal bounding rectangle of the members over all dimensions.
  Box core_box;
  /// Quality mu = |members| * (1/beta)^|relevant_dims| — also the cluster's
  /// importance for initialization ordering.
  double score = 0.0;
  /// Row index of the medoid that produced the cluster.
  size_t medoid = 0;
};

/// Runs MineClus over `data` within `domain`.
///
/// Greedy iterative projected clustering: in each round, a handful of medoid
/// candidates are sampled from the not-yet-clustered points; for every
/// candidate, each remaining point contributes the *transaction* of
/// dimensions in which it lies within the window of the medoid, and the
/// FP-tree miner finds the dimension set maximizing mu subject to the alpha
/// support threshold. The best cluster of the round is kept, its members are
/// removed, and the process repeats. Clusters are returned sorted by
/// descending score (importance).
std::vector<SubspaceCluster> RunMineClus(const Dataset& data,
                                         const Box& domain,
                                         const MineClusConfig& config);

}  // namespace sthist

#endif  // STHIST_CLUSTERING_MINECLUS_H_
