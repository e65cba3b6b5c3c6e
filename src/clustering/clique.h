#ifndef STHIST_CLUSTERING_CLIQUE_H_
#define STHIST_CLUSTERING_CLIQUE_H_

#include <cstdint>
#include <vector>

#include "clustering/clusterer.h"

namespace sthist {

/// CLIQUE parameters (Agrawal, Gehrke, Gunopulos, Raghavan — SIGMOD'98).
struct CliqueConfig {
  /// Grid resolution: each dimension is cut into xi equal intervals.
  size_t xi = 10;

  /// Density floor: a grid unit is dense when it holds at least
  /// max(tau * n, 1.5x the uniform expectation for its level, 8) tuples.
  /// The level-adaptive component is the standard fix for uniform cell mass
  /// shrinking as xi^-k across lattice levels.
  double tau = 0.002;

  /// Cap on the dimensionality of explored subspaces (the apriori lattice
  /// grows combinatorially; real deployments prune it).
  size_t max_dims = 4;

  /// Cap on clusters returned (highest coverage first).
  size_t max_clusters = 64;
};

/// Range checks on the settings above (xi >= 2, a positive tau,
/// max_dims >= 1); the CliqueClusterer constructor CHECKs them.
Status Validate(const CliqueConfig& config);

/// Bottom-up grid-density subspace clustering.
///
/// CLIQUE finds dense axis-parallel grid units level by level: the dense
/// units of a k-dimensional subspace are joined apriori-style from dense
/// (k-1)-dimensional units, pruned by the monotonicity of density. Clusters
/// are the connected components of dense units within each subspace; each
/// component reports its subspace dimensions, member tuples and bounding
/// rectangle. Scores favor higher-dimensional, higher-coverage clusters so
/// initialization feeds the most specific structures first.
class CliqueClusterer : public SubspaceClusterer {
 public:
  explicit CliqueClusterer(CliqueConfig config);

  std::vector<SubspaceCluster> Cluster(const Dataset& data,
                                       const Box& domain) const override;

  std::string name() const override { return "clique"; }

 private:
  CliqueConfig config_;
};

}  // namespace sthist

#endif  // STHIST_CLUSTERING_CLIQUE_H_
