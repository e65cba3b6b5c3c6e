#ifndef STHIST_HISTOGRAM_MHIST_H_
#define STHIST_HISTOGRAM_MHIST_H_

#include <vector>

#include "data/dataset.h"
#include "histogram/histogram.h"
#include "index/flat_index.h"

namespace sthist {

/// MHist parameters.
struct MHistConfig {
  /// Number of buckets to build.
  size_t max_buckets = 100;
};

/// MHIST-2: the static multidimensional MaxDiff histogram
/// (Poosala & Ioannidis, VLDB'97) — the paper's reference [23] for
/// conventional multidimensional histogram construction (and the structure
/// SASH builds on).
///
/// Construction greedily splits the bucket whose marginal frequency
/// distribution contains the largest difference between adjacent bins
/// ("MaxDiff"), at that boundary, until the budget is reached. Estimation
/// assumes uniformity inside each bucket. Static: it scans the data at build
/// time and ignores query feedback.
class MHistHistogram : public Histogram {
 public:
  MHistHistogram(const Dataset& data, const Box& domain,
                 const MHistConfig& config);

  /// Served through a flat SoA bucket index built at construction
  /// (closed-overlap probes, so degenerate buckets swallowed by the query
  /// still count); bitwise-identical to EstimateLinear — skipped buckets
  /// contribute an exact 0.0 to the linear sum, and hits are visited in
  /// bucket order.
  double Estimate(const Box& query) const override;

  /// The original flat bucket scan, retained as the differential-test
  /// reference for the indexed Estimate.
  double EstimateLinear(const Box& query) const override;

  /// Static; ignores feedback.
  void Refine(const Box& query, const CardinalityOracle& oracle) override;

  size_t bucket_count() const override { return buckets_.size(); }

  /// Flattened bucket view for inspection and tests.
  struct BucketInfo {
    Box box;
    double frequency = 0.0;
  };
  std::vector<BucketInfo> Dump() const;

 private:
  struct BuildBucket {
    Box box;
    std::vector<size_t> rows;  // Tuples inside; dropped after construction.
    // Best split found for this bucket.
    double max_diff = -1.0;
    size_t split_dim = 0;
    double split_at = 0.0;
  };

  // Computes the bucket's MaxDiff split candidate over all dimensions.
  static void ScoreBucket(const Dataset& data, BuildBucket* bucket);

  std::vector<BucketInfo> buckets_;
  /// Spatial index over buckets_ (entry id = bucket position). Built once at
  /// construction; the histogram is static, so it never goes stale.
  FlatBoxIndex index_;
};

}  // namespace sthist

#endif  // STHIST_HISTOGRAM_MHIST_H_
