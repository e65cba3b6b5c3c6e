#ifndef STHIST_CLUSTERING_DOC_H_
#define STHIST_CLUSTERING_DOC_H_

#include <cstdint>

#include "clustering/clusterer.h"

namespace sthist {

/// DOC parameters (Procopiuc, Jones, Agarwal, Murali — SIGMOD'02).
struct DocConfig {
  /// Minimum cluster size as a fraction of the dataset.
  double alpha = 0.01;

  /// Dimensionality-vs-size tradeoff of mu(|C|, |D|) = |C| * (1/beta)^|D|.
  double beta = 0.25;

  /// Window half-width per dimension, as a fraction of the domain extent.
  double width_fraction = 0.05;

  /// Size of the discriminating set X drawn per trial. Small sets keep the
  /// success probability workable on datasets with many modest clusters;
  /// the min-size filter rejects the occasional spurious agreement.
  size_t discriminating_set_size = 2;

  /// Cap on clusters returned.
  size_t max_clusters = 64;

  uint64_t seed = 17;
};

/// Range checks on the settings above (alpha and beta in (0, 1], a positive
/// width, a non-empty discriminating set); the DocClusterer constructor
/// CHECKs them.
Status Validate(const DocConfig& config);

/// Monte-Carlo projected clustering.
///
/// DOC guesses a cluster by sampling a medoid p and a small discriminating
/// set X from the data: the cluster's subspace is the set of dimensions in
/// which *every* point of X lies within the window of p (if X really is a
/// sample of p's cluster, those are exactly the cluster's bounded
/// dimensions). Among many trials the candidate maximizing
/// mu(|C|, |D|) = |C| * (1/beta)^|D| wins; the greedy outer loop removes its
/// members and repeats. MineClus replaces this Monte-Carlo guess with exact
/// FP-tree mining — having both makes the trade-off measurable
/// (`bench_ablation_clusterer`).
class DocClusterer : public SubspaceClusterer {
 public:
  explicit DocClusterer(DocConfig config);

  std::vector<SubspaceCluster> Cluster(const Dataset& data,
                                       const Box& domain) const override;

  std::string name() const override { return "doc"; }

 private:
  DocConfig config_;
};

}  // namespace sthist

#endif  // STHIST_CLUSTERING_DOC_H_
