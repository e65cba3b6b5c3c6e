#ifndef STHIST_HISTOGRAM_KDE_H_
#define STHIST_HISTOGRAM_KDE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/box.h"
#include "core/reservoir.h"
#include "core/rng.h"
#include "core/status.h"
#include "histogram/histogram.h"
#include "obs/metrics.h"

namespace sthist {

/// Tuning knobs for the feedback-driven KDE estimator (DESIGN.md §18).
struct KdeConfig {
  /// Sample points retained — the estimator's "bucket" budget. Estimation
  /// cost is O(sample * dim) per query, so this is the accuracy/speed dial.
  size_t sample_capacity = 1024;

  /// Each feedback box contributes m = clamp(ceil(actual / tuples_per_point),
  /// 1, max_points_per_feedback) synthetic points drawn uniformly inside it —
  /// the same count-weighting rule as the serving layer's FeedbackReservoir,
  /// so denser regions weigh more in the sample.
  size_t max_points_per_feedback = 8;
  double tuples_per_point = 64.0;

  /// Recency bias: every age_interval feedback items the reservoir's virtual
  /// stream length is halved (0 disables ageing).
  size_t age_interval = 4096;

  /// Online per-dimension bandwidth adaptation from feedback error (step
  /// sizes and clamps are constants in kde.cc). When false the bandwidths
  /// stay at Scott's rule (still tracking sample growth) — the
  /// fixed-bandwidth baseline tests/kde_test.cc compares against.
  bool adapt_bandwidth = true;

  uint64_t seed = 4242;

  /// Registry receiving the histogram.kde.* metrics (DESIGN.md §13); nullptr
  /// means the process-wide GlobalMetrics().
  obs::MetricsRegistry* metrics = nullptr;
};

/// Validates a KdeConfig from an untrusted source (CLI flags).
Status Validate(const KdeConfig& config);

/// Sample-backed adaptive-bandwidth KDE cardinality estimator — the
/// feedback-kde-style alternative estimator family (ROADMAP item 1,
/// DESIGN.md §18).
///
/// The model: a seed-deterministic reservoir sample of mass-weighted points
/// synthesized from query feedback (uniform inside each feedback box, each
/// point carrying μ_i = actual / points_drawn tuples of the observed count —
/// the estimator never sees tuples, same as STHoles), with an axis-aligned
/// product-Gaussian kernel on every sample point, truncated to the domain.
/// A range query's estimate is the self-normalized weighted kernel mass
/// inside the box,
///
///   est(q) = N · Σ_i μ_i · w_i · Π_d [ Φ((hi_d − x_id)/h_d)
///                                      − Φ((lo_d − x_id)/h_d) ] / Σ_i μ_i
///
/// (N total tuples, Φ the standard normal CDF via erf), where
/// w_i = 1 / (kernel i's mass inside the domain box) renormalizes each
/// truncated kernel so no probability leaks past the domain boundary. The
/// mass weights are what make the model sharper than the feedback-box
/// density itself: a band observation carrying 400 tuples outweighs an
/// empty-corner observation carrying 5 by 80:1, where unweighted points
/// could differ at most by the per-feedback point cap. Self-normalization
/// makes the full-domain estimate recover N exactly however wide the
/// bandwidths adapt. Per-dimension CDF differences, so estimation is
/// O(m·dim) with no numerical integration. Bandwidths h_d start at Scott's rule
/// (σ_d · m^(−1/(dim+4)), re-anchored as the sample evolves) and adapt
/// online: each feedback moves each h_d multiplicatively in the direction
/// that shrinks the observed relative error, using the analytic gradient of
/// the estimate w.r.t. h_d, clamped to sane bounds.
///
/// Determinism: construction seed fixes the reservoir and point-synthesis
/// streams; estimation is pure; refinement is a deterministic function of
/// the feedback sequence — so the §9 bitwise-replay contract holds, and
/// Serialize/Deserialize round-trips the full state (sample, bandwidths,
/// RNG engines) bit-exactly for warm restarts.
class KdeHistogram : public Histogram {
 public:
  /// Creates an estimator over `domain` for a relation of `total_tuples`
  /// rows. Until feedback arrives the sample is empty and estimates fall
  /// back to the uniform (trivial) model.
  KdeHistogram(const Box& domain, double total_tuples, const KdeConfig& config);

  KdeHistogram& operator=(const KdeHistogram&) = delete;

  /// Estimated cardinality of `query`: one row-major scan over the sample,
  /// with no lazily built state. Malformed queries (IsEstimableQuery:
  /// dimension mismatch, non-finite bounds, an inverted interval) estimate
  /// to 0 and bump the robustness counters instead of aborting.
  double Estimate(const Box& query) const override;

  /// Learns from one executed query: adapts the per-dimension bandwidths
  /// against the observed error (before the sample moves), then folds
  /// mass-weighted synthetic points into the reservoir and re-anchors the
  /// Scott reference on the updated sample. The query and its count pass
  /// the shared checks first (SanitizeFeedbackQuery, SanitizingOracle), so
  /// a box of zero volume inside the domain is rejected and counted.
  void Refine(const Box& query, const CardinalityOracle& oracle) override;

  /// Deep copy: sample, bandwidths, RNG engines, counters. The clone's
  /// estimates are bitwise-identical to the source's.
  std::unique_ptr<Histogram> Clone() const override;

  /// Sample points currently held — the synopsis "bucket" count.
  size_t bucket_count() const override { return sample_.size(); }

  RobustnessStats robustness() const override;

  /// Versioned binary snapshot ("STHK" frame, DESIGN.md §17/§18): domain,
  /// totals, bandwidth state, the full sample, and both RNG engine states,
  /// so a restored estimator replays bit-identically.
  std::string SerializeBinary() const override;

  static constexpr uint32_t kBinaryFormatVersion = 1;

  /// Reconstructs an estimator from SerializeBinary output. `config`
  /// supplies the tuning knobs (adaptation, ageing); the sample and
  /// all replay-relevant state come from the snapshot. The restored
  /// capacity is max(config.sample_capacity, snapshot sample size) —
  /// decoding never drops points. Fails closed on any framing, bounds, or
  /// finiteness violation.
  static StatusOr<std::unique_ptr<KdeHistogram>> DeserializeBinary(
      std::string_view bytes, const KdeConfig& config);

  const Box& domain() const { return domain_; }
  double total_tuples() const { return total_tuples_; }
  size_t sample_size() const { return sample_.size(); }
  size_t feedbacks_seen() const { return feedbacks_; }

  /// Current per-dimension bandwidths (adapted). Exposed for tests and
  /// inspection.
  const std::vector<double>& bandwidths() const { return bandwidth_; }

 private:
  struct Metrics {
    obs::Counter estimates;
    obs::Counter refines;
    obs::Counter adaptations;
    obs::Gauge sample_points;
    obs::Gauge bandwidth_geomean;
    obs::LatencyHistogram refine_seconds;
  };

  KdeHistogram(const KdeHistogram& other);

  /// Uniform fallback while the sample is empty.
  double TrivialEstimate(const Box& query) const;

  /// Row-major estimate that simultaneously accumulates the per-dimension
  /// bandwidth gradient Σ_i (Π_{d'≠d} F_id') · ∂F_id/∂log h_d into `grad`
  /// (sized dim). The estimate value is bitwise-identical to Estimate's.
  double EstimateAndGrad(const Box& query, std::vector<double>* grad) const;

  /// Re-derives scott_ from the current sample and bandwidth_ from
  /// scott_ × exp(log_factor_), then refreshes coeff_.
  void RecomputeBandwidths();

  /// Rebuilds inv_h_ from the current bandwidths, then the per-point
  /// estimation coefficients c_i = (N / Σ_j μ_j) · μ_i · w_i from the
  /// current sample (derived state — never serialized).
  void ComputeCoefficients();

  const Box domain_;
  const double total_tuples_;
  const size_t dim_;
  const KdeConfig config_;

  /// Sample rows are dim_+1 doubles: the point coordinates followed by the
  /// tuple mass μ_i the point carries. The slot-selection RNG lives inside.
  Reservoir<Point> sample_;
  Rng synth_rng_;  // Coordinate-synthesis stream.

  std::vector<double> log_factor_;  // Adapted log multiplier per dim.
  std::vector<double> scott_;       // Scott's-rule reference per dim.
  std::vector<double> bandwidth_;   // scott_ × exp(log_factor_), clamped.
  std::vector<double> inv_h_;       // 1 / (bandwidth_ × √2) per dim.
  std::vector<double> coeff_;       // Per-point coefficient c_i (see above).

  size_t feedbacks_ = 0;
  RobustnessStats refine_robustness_;
  mutable std::atomic<uint64_t> rejected_estimates_{0};

  // Refiner-thread scratch for EstimateAndGrad (Refine is single-threaded
  // by contract).
  mutable std::vector<double> factor_scratch_;
  mutable std::vector<double> dfactor_scratch_;
  mutable std::vector<double> prefix_scratch_;
  mutable std::vector<double> suffix_scratch_;

  Metrics metrics_;
};

}  // namespace sthist

#endif  // STHIST_HISTOGRAM_KDE_H_
