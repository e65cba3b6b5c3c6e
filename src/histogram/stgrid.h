#ifndef STHIST_HISTOGRAM_STGRID_H_
#define STHIST_HISTOGRAM_STGRID_H_

#include <atomic>
#include <vector>

#include "histogram/histogram.h"

namespace sthist {

/// STGrid parameters.
struct STGridConfig {
  /// Initial (and maintained) number of intervals per dimension. The bucket
  /// count is cells_per_dim^d.
  size_t cells_per_dim = 8;

  /// Queries between grid restructurings (0 disables restructuring).
  size_t restructure_interval = 200;
};

/// Grid-based self-tuning histogram in the spirit of STGrid
/// (Aboulnaga & Chaudhuri, SIGMOD'99): the classic precursor to STHoles and
/// the weakest-feedback self-tuning baseline.
///
/// The data space is partitioned into a (non-uniform) grid of per-dimension
/// intervals. Unlike STHoles, refinement sees only the query's *total* true
/// cardinality: the estimation error is distributed over the overlapping
/// cells with a damped delta rule, weighted by each cell's current share of
/// the estimate. Periodic restructuring splits high-frequency intervals and
/// merges adjacent low-frequency ones, holding the budget constant.
///
/// Included as a baseline: it shows what self-tuning achieves without
/// STHoles' per-region feedback, and by extension how much further the
/// subspace-clustering initialization reaches.
class STGridHistogram : public Histogram {
 public:
  /// Creates a uniform grid over `domain` holding `total_tuples` spread
  /// evenly.
  STGridHistogram(const Box& domain, double total_tuples,
                  const STGridConfig& config);

  /// Estimated cardinality of `query`. Malformed queries estimate to 0 and
  /// bump the robustness counters instead of aborting.
  ///
  /// The grid is its own spatial index: per-dimension binary search finds
  /// the overlapped cell ranges directly, so only those cells are visited
  /// (see DESIGN.md §10 on why no bucket index is layered on top).
  double Estimate(const Box& query) const override;

  /// Naive full-tensor scan over every cell, retained as the differential
  /// reference for the grid-probed Estimate (cells outside the query
  /// contribute an exact 0.0 fraction, so the two sum bitwise-identically).
  double EstimateLinear(const Box& query) const override;

  /// Delta-rule refinement from the query's true total cardinality only.
  /// Untrusted feedback degrades gracefully: unusable query boxes are
  /// dropped, repairable ones sanitized, and non-finite or negative counts
  /// clamped — each bumping robustness().
  void Refine(const Box& query, const CardinalityOracle& oracle) override;

  size_t bucket_count() const override { return frequencies_.size(); }

  /// Degradation counters accumulated since construction.
  RobustnessStats robustness() const override;

  /// Sum of all cell frequencies.
  double TotalFrequency() const;

  /// Interval boundaries of one dimension (size cells_per_dim + 1).
  const std::vector<double>& boundaries(size_t d) const {
    return boundaries_[d];
  }

 private:
  size_t dim() const { return boundaries_.size(); }

  // Index of the interval of dimension d containing x (clamped).
  size_t IntervalIndex(size_t d, double x) const;

  // Flat index from per-dimension interval indices.
  size_t FlatIndex(const std::vector<size_t>& cell) const;

  // Iterates all cells overlapping `query`; calls fn(flat_index, fraction)
  // where fraction is the volume fraction of the cell inside the query.
  template <typename Fn>
  void ForEachOverlap(const Box& query, Fn&& fn) const;

  // Splits the highest-marginal intervals and merges the lowest-marginal
  // adjacent pairs in every dimension, keeping cells_per_dim constant.
  void Restructure();

  // Rebuilds the frequency tensor after dimension d's boundaries changed
  // from `old_bounds` to boundaries_[d], redistributing cell mass by
  // interval overlap.
  void RemapDimension(size_t d, const std::vector<double>& old_bounds);

  Box domain_;
  STGridConfig config_;
  std::vector<std::vector<double>> boundaries_;  // Per dim, sorted.
  std::vector<double> frequencies_;              // Row-major tensor.
  size_t queries_seen_ = 0;
  // Refine-path degradation counters (Refine is exclusive by contract).
  RobustnessStats stats_;
  // Estimate-path rejections; atomic because concurrent readers run the
  // const Estimate. Merged into robustness().
  mutable std::atomic<size_t> rejected_estimates_{0};
};

}  // namespace sthist

#endif  // STHIST_HISTOGRAM_STGRID_H_
