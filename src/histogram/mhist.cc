#include "histogram/mhist.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace sthist {
namespace {

/// Resolution of the per-dimension marginal used to locate the MaxDiff
/// split point inside a bucket.
constexpr size_t kMarginalBins = 64;

}  // namespace

void MHistHistogram::ScoreBucket(const Dataset& data, BuildBucket* bucket) {
  bucket->max_diff = -1.0;
  if (bucket->rows.size() < 2) return;

  std::vector<double> marginal(kMarginalBins);
  for (size_t d = 0; d < data.dim(); ++d) {
    double lo = bucket->box.lo(d);
    double extent = bucket->box.Extent(d);
    if (extent <= 0.0) continue;

    std::fill(marginal.begin(), marginal.end(), 0.0);
    for (size_t row : bucket->rows) {
      double frac = (data.value(row, d) - lo) / extent;
      auto bin = static_cast<size_t>(frac * static_cast<double>(kMarginalBins));
      marginal[std::min(bin, kMarginalBins - 1)] += 1.0;
    }

    for (size_t b = 0; b + 1 < kMarginalBins; ++b) {
      double diff = std::abs(marginal[b] - marginal[b + 1]);
      if (diff > bucket->max_diff) {
        // Split between bin b and b+1.
        double at = lo + extent * static_cast<double>(b + 1) /
                             static_cast<double>(kMarginalBins);
        // A split at the bucket border would not partition anything.
        if (at <= bucket->box.lo(d) || at >= bucket->box.hi(d)) continue;
        bucket->max_diff = diff;
        bucket->split_dim = d;
        bucket->split_at = at;
      }
    }
  }
}

MHistHistogram::MHistHistogram(const Dataset& data, const Box& domain,
                               const MHistConfig& config) {
  STHIST_CHECK(config.max_buckets >= 1);
  STHIST_CHECK(data.dim() == domain.dim());

  std::vector<BuildBucket> building;
  {
    BuildBucket root;
    root.box = domain;
    root.rows.resize(data.size());
    for (size_t i = 0; i < data.size(); ++i) root.rows[i] = i;
    ScoreBucket(data, &root);
    building.push_back(std::move(root));
  }

  while (building.size() < config.max_buckets) {
    // The bucket with the largest MaxDiff is the most non-uniform one.
    size_t victim = building.size();
    double best = 0.0;
    for (size_t i = 0; i < building.size(); ++i) {
      if (building[i].max_diff > best) {
        best = building[i].max_diff;
        victim = i;
      }
    }
    if (victim == building.size()) break;  // Everything is uniform.

    BuildBucket& splitting = building[victim];
    size_t d = splitting.split_dim;
    double at = splitting.split_at;

    BuildBucket low, high;
    low.box = splitting.box;
    low.box.set_hi(d, at);
    high.box = splitting.box;
    high.box.set_lo(d, at);
    for (size_t row : splitting.rows) {
      (data.value(row, d) < at ? low : high).rows.push_back(row);
    }
    ScoreBucket(data, &low);
    ScoreBucket(data, &high);
    building[victim] = std::move(low);
    building.push_back(std::move(high));
  }

  buckets_.reserve(building.size());
  for (BuildBucket& bucket : building) {
    buckets_.push_back(
        {bucket.box, static_cast<double>(bucket.rows.size())});
  }

  std::vector<FlatBoxIndex::Entry> entries;
  entries.reserve(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    entries.push_back({buckets_[i].box, i});
  }
  index_.Bulk(std::move(entries));
}

double MHistHistogram::Estimate(const Box& query) const {
  // Closed-overlap probe: a degenerate bucket inside the query shares no
  // open interior with it but must still contribute its mass. Buckets the
  // probe skips contribute an exact 0.0 term (disjoint => zero intersection
  // volume) or no term (degenerate, not contained) in the linear scan, and
  // sorting restores bucket order, so the sum below is bitwise-identical to
  // EstimateLinear.
  // Thread-local scratch so concurrent readers never share a buffer and the
  // steady-state probe never allocates.
  static thread_local std::vector<uint64_t> hits;
  hits.clear();
  index_.Probe(query, BoxOverlap::kClosed, &hits);
  std::sort(hits.begin(), hits.end());
  double estimate = 0.0;
  for (uint64_t id : hits) {
    const BucketInfo& bucket = buckets_[id];
    double volume = bucket.box.Volume();
    if (volume <= 0.0) {
      // Degenerate bucket: counts fully when the query covers it.
      if (query.Contains(bucket.box)) estimate += bucket.frequency;
      continue;
    }
    estimate +=
        bucket.frequency * bucket.box.IntersectionVolume(query) / volume;
  }
  return estimate;
}

double MHistHistogram::EstimateLinear(const Box& query) const {
  double estimate = 0.0;
  for (const BucketInfo& bucket : buckets_) {
    double volume = bucket.box.Volume();
    if (volume <= 0.0) {
      if (query.Contains(bucket.box)) estimate += bucket.frequency;
      continue;
    }
    estimate +=
        bucket.frequency * bucket.box.IntersectionVolume(query) / volume;
  }
  return estimate;
}

void MHistHistogram::Refine(const Box& /*query*/,
                            const CardinalityOracle& /*oracle*/) {}

std::vector<MHistHistogram::BucketInfo> MHistHistogram::Dump() const {
  return buckets_;
}

}  // namespace sthist
