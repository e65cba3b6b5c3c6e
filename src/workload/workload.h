#ifndef STHIST_WORKLOAD_WORKLOAD_H_
#define STHIST_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "core/box.h"
#include "core/status.h"
#include "data/dataset.h"

namespace sthist {

/// A workload is an ordered sequence of range queries.
using Workload = std::vector<Box>;

/// Where query centers are drawn from (paper §5.1).
enum class CenterDistribution {
  /// Uniform over the domain — the paper's default pattern.
  kUniform,
  /// Sampled from the data tuples, so queries follow the data distribution.
  kData,
};

/// Configuration for workload generation.
struct WorkloadConfig {
  size_t num_queries = 1000;
  /// Query volume as a fraction of the domain volume; the paper's "X[1%]"
  /// setting is volume_fraction = 0.01. Queries are hypercubes with side
  /// (volume_fraction)^(1/d) of the domain extent per dimension.
  double volume_fraction = 0.01;
  CenterDistribution centers = CenterDistribution::kUniform;
  uint64_t seed = 7;
};

/// Generates fixed-volume hypercube queries with random centers. Queries are
/// shifted (not clipped) to fit inside the domain, so every query has exactly
/// the configured volume — keeping results comparable across experiments.
/// `data` is required only for CenterDistribution::kData.
Workload MakeWorkload(const Box& domain, const WorkloadConfig& config,
                      const Dataset* data = nullptr);

/// Returns a permutation of `workload` (same queries, shuffled order) — the
/// π(W) of Definition 1 used by the sensitivity experiments.
Workload Permuted(const Workload& workload, uint64_t seed);

/// Checked wrapper over MakeWorkload for configurations from untrusted
/// sources: validates the domain, volume fraction, and center distribution
/// requirements, returning a reason instead of tripping internal CHECKs.
StatusOr<Workload> MakeWorkloadChecked(const Box& domain,
                                       const WorkloadConfig& config,
                                       const Dataset* data = nullptr);

/// All axis-aligned unit cells [i, i+1] x [j, j+1] x ... of the integer grid
/// covering `domain`, in random order. This is the homogeneous grid-aligned
/// workload of the stagnation analysis (§3.2): unit-volume queries against
/// larger clusters. `cells_per_dim` controls the grid resolution.
Workload MakeGridWorkload(const Box& domain, size_t cells_per_dim,
                          uint64_t seed);

}  // namespace sthist

#endif  // STHIST_WORKLOAD_WORKLOAD_H_
