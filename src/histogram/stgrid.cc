#include "histogram/stgrid.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "histogram/robustness.h"

namespace sthist {
namespace {

/// Delta-rule damping factor for frequency refinement (the paper's alpha).
constexpr double kLearningRate = 0.5;

/// Fraction of intervals per dimension split (and merged) at each
/// restructuring.
constexpr double kRestructureFraction = 0.15;

}  // namespace

STGridHistogram::STGridHistogram(const Box& domain, double total_tuples,
                                 const STGridConfig& config)
    : domain_(domain), config_(config) {
  STHIST_CHECK(domain.dim() > 0);
  STHIST_CHECK(config.cells_per_dim >= 2);

  const size_t k = config.cells_per_dim;
  size_t cells = 1;
  for (size_t d = 0; d < domain.dim(); ++d) {
    STHIST_CHECK_MSG(cells <= (1u << 24) / k, "grid too large: %zu^%zu", k,
                     domain.dim());
    cells *= k;
  }

  boundaries_.resize(domain.dim());
  for (size_t d = 0; d < domain.dim(); ++d) {
    boundaries_[d].resize(k + 1);
    for (size_t i = 0; i <= k; ++i) {
      boundaries_[d][i] =
          domain.lo(d) + domain.Extent(d) * static_cast<double>(i) /
                             static_cast<double>(k);
    }
  }
  frequencies_.assign(cells, total_tuples / static_cast<double>(cells));
}

size_t STGridHistogram::IntervalIndex(size_t d, double x) const {
  const std::vector<double>& bounds = boundaries_[d];
  // First boundary strictly greater than x, minus one.
  auto it = std::upper_bound(bounds.begin(), bounds.end(), x);
  size_t index = it == bounds.begin()
                     ? 0
                     : static_cast<size_t>(it - bounds.begin()) - 1;
  return std::min(index, bounds.size() - 2);
}

size_t STGridHistogram::FlatIndex(const std::vector<size_t>& cell) const {
  size_t index = 0;
  for (size_t d = 0; d < dim(); ++d) {
    index = index * config_.cells_per_dim + cell[d];
  }
  return index;
}

template <typename Fn>
void STGridHistogram::ForEachOverlap(const Box& query, Fn&& fn) const {
  std::vector<size_t> first(dim()), last(dim());
  for (size_t d = 0; d < dim(); ++d) {
    if (query.hi(d) < domain_.lo(d) || query.lo(d) > domain_.hi(d)) return;
    first[d] = IntervalIndex(d, std::max(query.lo(d), domain_.lo(d)));
    last[d] = IntervalIndex(d, std::min(query.hi(d), domain_.hi(d)));
  }

  std::vector<size_t> cell = first;
  while (true) {
    double fraction = 1.0;
    for (size_t d = 0; d < dim(); ++d) {
      double lo = boundaries_[d][cell[d]];
      double hi = boundaries_[d][cell[d] + 1];
      double width = hi - lo;
      double overlap = std::min(hi, query.hi(d)) - std::max(lo, query.lo(d));
      fraction *= width > 0.0 ? std::clamp(overlap / width, 0.0, 1.0) : 0.0;
    }
    fn(FlatIndex(cell), fraction);

    size_t d = dim() - 1;
    while (true) {
      if (cell[d] < last[d]) {
        ++cell[d];
        break;
      }
      cell[d] = first[d];
      if (d == 0) return;
      --d;
    }
  }
}

double STGridHistogram::Estimate(const Box& query) const {
  if (!IsEstimableQuery(domain_, query)) {
    rejected_estimates_.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  }
  double estimate = 0.0;
  ForEachOverlap(query, [&](size_t index, double fraction) {
    estimate += frequencies_[index] * fraction;
  });
  return estimate;
}

double STGridHistogram::EstimateLinear(const Box& query) const {
  if (!IsEstimableQuery(domain_, query)) {
    rejected_estimates_.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  }
  // Visit every cell of the tensor in flat (row-major) order — the same
  // order ForEachOverlap walks its sub-range — computing each cell's volume
  // fraction from scratch. Cells outside the query clamp to an exact 0.0
  // fraction and contribute +0.0, so this sums bitwise-identically to the
  // grid-probed Estimate.
  double estimate = 0.0;
  std::vector<size_t> cell(dim(), 0);
  for (size_t index = 0; index < frequencies_.size(); ++index) {
    double fraction = 1.0;
    for (size_t d = 0; d < dim(); ++d) {
      double lo = boundaries_[d][cell[d]];
      double hi = boundaries_[d][cell[d] + 1];
      double width = hi - lo;
      double overlap = std::min(hi, query.hi(d)) - std::max(lo, query.lo(d));
      fraction *= width > 0.0 ? std::clamp(overlap / width, 0.0, 1.0) : 0.0;
    }
    estimate += frequencies_[index] * fraction;

    for (size_t d = dim(); d-- > 0;) {
      if (++cell[d] < config_.cells_per_dim) break;
      cell[d] = 0;
    }
  }
  return estimate;
}

RobustnessStats STGridHistogram::robustness() const {
  RobustnessStats stats = stats_;
  stats.rejected_queries +=
      rejected_estimates_.load(std::memory_order_relaxed);
  return stats;
}

void STGridHistogram::Refine(const Box& query,
                             const CardinalityOracle& oracle) {
  // Query boxes and oracle counts are untrusted: repair what is repairable,
  // drop what is not, and never abort.
  std::optional<Box> sanitized = SanitizeFeedbackQuery(domain_, query, &stats_);
  if (!sanitized.has_value()) return;
  const Box q = std::move(*sanitized);

  // STGrid's feedback model: only the query's total true cardinality.
  // The sanitizing wrapper clamps non-finite and negative counts to 0.
  SanitizingOracle safe(oracle, &stats_);
  double actual = safe.Count(q);

  // Collect overlaps once; reuse for the weighted update.
  std::vector<std::pair<size_t, double>> overlaps;
  double estimate = 0.0;
  ForEachOverlap(q, [&](size_t index, double fraction) {
    overlaps.push_back({index, fraction});
    estimate += frequencies_[index] * fraction;
  });
  if (overlaps.empty()) return;

  double error = actual - estimate;
  if (estimate > 1e-12) {
    // Distribute the error proportionally to each cell's contribution.
    for (auto& [index, fraction] : overlaps) {
      double weight = frequencies_[index] * fraction / estimate;
      frequencies_[index] = std::max(
          0.0, frequencies_[index] + kLearningRate * error * weight);
    }
  } else {
    // Nothing to scale against: spread evenly over the overlapped portions.
    double total_fraction = 0.0;
    for (auto& [index, fraction] : overlaps) total_fraction += fraction;
    if (total_fraction <= 0.0) return;
    for (auto& [index, fraction] : overlaps) {
      frequencies_[index] = std::max(
          0.0, frequencies_[index] + kLearningRate * error * fraction /
                                         total_fraction);
    }
  }

  ++queries_seen_;
  if (config_.restructure_interval > 0 &&
      queries_seen_ % config_.restructure_interval == 0) {
    Restructure();
  }
}

double STGridHistogram::TotalFrequency() const {
  double total = 0.0;
  for (double f : frequencies_) total += f;
  return total;
}

void STGridHistogram::Restructure() {
  const size_t k = config_.cells_per_dim;
  size_t moves = std::max<size_t>(
      1, static_cast<size_t>(kRestructureFraction * static_cast<double>(k)));

  for (size_t d = 0; d < dim(); ++d) {
    for (size_t move = 0; move < moves; ++move) {
      // Marginal frequency per interval of dimension d.
      std::vector<double> marginal(k, 0.0);
      size_t stride = 1;
      for (size_t d2 = d + 1; d2 < dim(); ++d2) stride *= k;
      for (size_t index = 0; index < frequencies_.size(); ++index) {
        marginal[(index / stride) % k] += frequencies_[index];
      }

      // Split the heaviest interval; merge the lightest adjacent pair not
      // touching it. Skip the move when it would not change anything.
      size_t split =
          static_cast<size_t>(std::max_element(marginal.begin(),
                                               marginal.end()) -
                              marginal.begin());
      double best_pair = -1.0;
      size_t merge = k;  // Invalid.
      for (size_t i = 0; i + 1 < k; ++i) {
        if (i == split || i + 1 == split) continue;
        double pair = marginal[i] + marginal[i + 1];
        if (merge == k || pair < best_pair) {
          best_pair = pair;
          merge = i;
        }
      }
      if (merge == k || best_pair >= marginal[split]) break;

      // New boundary list: drop the boundary between merge and merge+1, add
      // the midpoint of the split interval.
      std::vector<double> old_bounds = boundaries_[d];
      std::vector<double> next;
      next.reserve(k + 1);
      double mid =
          0.5 * (old_bounds[split] + old_bounds[split + 1]);
      for (size_t i = 0; i <= k; ++i) {
        if (i == merge + 1) continue;  // Merged away.
        next.push_back(old_bounds[i]);
        if (i == split) next.push_back(mid);
      }
      STHIST_DCHECK(next.size() == k + 1);
      std::sort(next.begin(), next.end());
      boundaries_[d] = std::move(next);
      RemapDimension(d, old_bounds);
    }
  }
}

void STGridHistogram::RemapDimension(size_t d,
                                     const std::vector<double>& old_bounds) {
  const size_t k = config_.cells_per_dim;
  size_t inner = 1;  // Stride of dimension d.
  for (size_t d2 = d + 1; d2 < dim(); ++d2) inner *= k;
  size_t outer = frequencies_.size() / (inner * k);

  const std::vector<double>& new_bounds = boundaries_[d];
  std::vector<double> next(frequencies_.size(), 0.0);

  // Mass moves proportionally to interval overlap between old and new
  // partitions of dimension d; other dimensions are untouched.
  for (size_t old_i = 0; old_i < k; ++old_i) {
    double old_lo = old_bounds[old_i];
    double old_hi = old_bounds[old_i + 1];
    double old_len = old_hi - old_lo;
    if (old_len <= 0.0) continue;
    for (size_t new_i = 0; new_i < k; ++new_i) {
      double overlap = std::min(old_hi, new_bounds[new_i + 1]) -
                       std::max(old_lo, new_bounds[new_i]);
      if (overlap <= 0.0) continue;
      double share = overlap / old_len;
      for (size_t o = 0; o < outer; ++o) {
        for (size_t i = 0; i < inner; ++i) {
          next[(o * k + new_i) * inner + i] +=
              share * frequencies_[(o * k + old_i) * inner + i];
        }
      }
    }
  }
  frequencies_ = std::move(next);
}

}  // namespace sthist
