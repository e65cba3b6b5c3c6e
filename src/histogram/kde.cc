#include "histogram/kde.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "core/binfmt.h"
#include "core/check.h"
#include "histogram/robustness.h"
#include "obs/trace.h"

namespace sthist {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;
constexpr double kInvSqrtPi = 0.56418958354775628695;

/// Per-feedback multiplicative step on a bandwidth: h *= exp(±step) with
/// step = kLearnRate * min(|relative error|, 1), in the direction that
/// shrinks the error (sign of the analytic gradient — see Refine). Capped
/// at kMaxLogStep per feedback.
constexpr double kLearnRate = 0.05;
constexpr double kMaxLogStep = 0.25;

/// Adapted bandwidths are clamped to [min, max] × the Scott's-rule
/// reference, so feedback can never collapse a kernel to a delta or smear
/// it across the domain.
constexpr double kMinBandwidthFactor = 0.05;
constexpr double kMaxBandwidthFactor = 20.0;

/// Kernel mass of a standard-normal kernel centered at `x` inside [lo, hi]:
/// Φ((hi−x)/h) − Φ((lo−x)/h) with Φ(z) = (1 + erf(z/√2))/2, folded so the
/// √2 lives in inv_h = 1/(h·√2). Shared by Estimate, EstimateAndGrad and
/// the truncation weights — one function, one floating-point expression, so
/// the gradient path's estimate is bitwise Estimate's (§18).
inline double GaussBoxFactor(double x, double lo, double hi, double inv_h) {
  const double a = (lo - x) * inv_h;
  const double b = (hi - x) * inv_h;
  return 0.5 * (std::erf(b) - std::erf(a));
}

/// ∂F/∂log h of the factor above: (a·e^{−a²} − b·e^{−b²})/√π with the same
/// scaled a, b. Only its sign feeds the adaptation step, but the analytic
/// form keeps the direction exact even for far-off kernels.
inline double GaussBoxFactorGrad(double x, double lo, double hi,
                                 double inv_h) {
  const double a = (lo - x) * inv_h;
  const double b = (hi - x) * inv_h;
  return (a * std::exp(-a * a) - b * std::exp(-b * b)) * kInvSqrtPi;
}

bool ReadU64Checked(const char** p, const char* end, uint64_t* v) {
  if (end - *p < 8) return false;
  *v = binfmt::ReadU64(*p);
  *p += 8;
  return true;
}

bool ReadF64Checked(const char** p, const char* end, double* v) {
  if (end - *p < 8) return false;
  *v = binfmt::ReadF64(*p);
  *p += 8;
  return true;
}

std::string EngineText(const std::mt19937_64& engine) {
  std::ostringstream os;
  os << engine;
  return os.str();
}

bool RestoreEngine(const std::string& text, std::mt19937_64* engine) {
  std::istringstream is(text);
  is >> *engine;
  return !is.fail();
}

}  // namespace

Status Validate(const KdeConfig& config) {
  if (config.sample_capacity == 0) {
    return Status::InvalidArgument("kde sample_capacity must be positive");
  }
  if (config.max_points_per_feedback == 0) {
    return Status::InvalidArgument(
        "kde max_points_per_feedback must be positive");
  }
  if (!std::isfinite(config.tuples_per_point) ||
      config.tuples_per_point <= 0.0) {
    return StatusF(StatusCode::kInvalidArgument,
                   "kde tuples_per_point must be positive, got %g",
                   config.tuples_per_point);
  }
  return Status::Ok();
}

KdeHistogram::KdeHistogram(const Box& domain, double total_tuples,
                           const KdeConfig& config)
    : domain_(domain),
      total_tuples_(total_tuples),
      dim_(domain.dim()),
      config_(config),
      sample_(config.sample_capacity, DeriveSeed(config.seed, /*role=*/2)),
      synth_rng_(DeriveSeed(config.seed, /*role=*/1)),
      log_factor_(domain.dim(), 0.0),
      scott_(domain.dim(), 0.0),
      bandwidth_(domain.dim(), 0.0) {
  STHIST_CHECK(dim_ > 0);
  STHIST_CHECK(std::isfinite(total_tuples) && total_tuples >= 0.0);
  STHIST_CHECK(Validate(config).ok());

  obs::MetricsRegistry* reg =
      config.metrics != nullptr ? config.metrics : obs::GlobalMetrics();
  metrics_.estimates = reg->counter("histogram.kde.estimates");
  metrics_.refines = reg->counter("histogram.kde.refines");
  metrics_.adaptations = reg->counter("histogram.kde.adaptations");
  metrics_.sample_points = reg->gauge("histogram.kde.sample_points");
  metrics_.bandwidth_geomean = reg->gauge("histogram.kde.bandwidth_geomean");
  metrics_.refine_seconds = reg->latency("histogram.kde.refine_seconds");

  RecomputeBandwidths();
}

KdeHistogram::KdeHistogram(const KdeHistogram& other)
    : domain_(other.domain_),
      total_tuples_(other.total_tuples_),
      dim_(other.dim_),
      config_(other.config_),
      sample_(other.sample_),
      synth_rng_(other.synth_rng_),
      log_factor_(other.log_factor_),
      scott_(other.scott_),
      bandwidth_(other.bandwidth_),
      inv_h_(other.inv_h_),
      coeff_(other.coeff_),
      feedbacks_(other.feedbacks_),
      refine_robustness_(other.refine_robustness_),
      metrics_(other.metrics_) {
  rejected_estimates_.store(
      other.rejected_estimates_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

std::unique_ptr<Histogram> KdeHistogram::Clone() const {
  return std::unique_ptr<Histogram>(new KdeHistogram(*this));
}

double KdeHistogram::TrivialEstimate(const Box& query) const {
  const double domain_volume = domain_.Volume();
  if (!(domain_volume > 0.0)) return 0.0;
  return total_tuples_ * (domain_.IntersectionVolume(query) / domain_volume);
}

double KdeHistogram::Estimate(const Box& query) const {
  metrics_.estimates.Inc();
  if (!IsEstimableQuery(domain_, query)) {
    rejected_estimates_.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  }
  const size_t m = sample_.size();
  if (m == 0) return TrivialEstimate(query);

  // Per point, the factor chain multiplies in ascending dimension order and
  // the coefficient last, as EstimateAndGrad does, so Refine's view of the
  // estimate is this one bit for bit.
  double sum = 0.0;
  const std::vector<Point>& rows = sample_.items();
  for (size_t i = 0; i < m; ++i) {
    const Point& x = rows[i];
    double p = 1.0;
    for (size_t d = 0; d < dim_; ++d) {
      p *= GaussBoxFactor(x[d], query.lo(d), query.hi(d), inv_h_[d]);
    }
    sum += p * coeff_[i];
  }
  return sum < 0.0 ? 0.0 : sum;
}

double KdeHistogram::EstimateAndGrad(const Box& query,
                                     std::vector<double>* grad) const {
  const size_t m = sample_.size();
  if (m == 0) return TrivialEstimate(query);

  factor_scratch_.resize(dim_);
  dfactor_scratch_.resize(dim_);
  prefix_scratch_.resize(dim_ + 1);
  suffix_scratch_.resize(dim_ + 1);

  double sum = 0.0;
  const std::vector<Point>& rows = sample_.items();
  for (size_t i = 0; i < m; ++i) {
    const Point& x = rows[i];
    for (size_t d = 0; d < dim_; ++d) {
      factor_scratch_[d] =
          GaussBoxFactor(x[d], query.lo(d), query.hi(d), inv_h_[d]);
      dfactor_scratch_[d] =
          GaussBoxFactorGrad(x[d], query.lo(d), query.hi(d), inv_h_[d]);
    }
    // Leave-one-out products via prefix/suffix chains — no division, so a
    // zero factor in one dimension cannot poison the others' gradients.
    prefix_scratch_[0] = 1.0;
    for (size_t d = 0; d < dim_; ++d) {
      prefix_scratch_[d + 1] = prefix_scratch_[d] * factor_scratch_[d];
    }
    suffix_scratch_[dim_] = 1.0;
    for (size_t d = dim_; d > 0; --d) {
      suffix_scratch_[d - 1] = suffix_scratch_[d] * factor_scratch_[d - 1];
    }
    sum += prefix_scratch_[dim_] * coeff_[i];
    // The coefficient (mass × truncation weight × normalization) is held
    // constant for the gradient — its own bandwidth dependence is dropped:
    // the sign-based step only needs a descent direction, and freezing c_i
    // keeps the chains division-free.
    for (size_t d = 0; d < dim_; ++d) {
      (*grad)[d] += prefix_scratch_[d] * suffix_scratch_[d + 1] *
                    dfactor_scratch_[d] * coeff_[i];
    }
  }
  return sum;
}

void KdeHistogram::RecomputeBandwidths() {
  const size_t m = sample_.size();
  const double m_power =
      m > 0 ? std::pow(static_cast<double>(m),
                       -1.0 / (4.0 + static_cast<double>(dim_)))
            : 1.0;
  const std::vector<Point>& rows = sample_.items();
  double log_sum = 0.0;
  for (size_t d = 0; d < dim_; ++d) {
    double extent = domain_.Extent(d);
    if (!(extent > 0.0) || !std::isfinite(extent)) extent = 1.0;

    double sigma = 0.0;
    if (m > 1) {
      double mean = 0.0;
      for (const Point& x : rows) mean += x[d];
      mean /= static_cast<double>(m);
      double var = 0.0;
      for (const Point& x : rows) {
        const double delta = x[d] - mean;
        var += delta * delta;
      }
      sigma = std::sqrt(var / static_cast<double>(m));
    }
    // Collapsed or near-empty samples fall back to a domain-scaled spread
    // so the kernel never degenerates to a delta.
    if (!(sigma > 0.0) || !std::isfinite(sigma)) sigma = 0.1 * extent;

    double scott = sigma * m_power;
    const double floor = 1e-9 * extent;
    if (!(scott > floor)) scott = floor;
    scott_[d] = scott;
    bandwidth_[d] = scott * std::exp(log_factor_[d]);
    log_sum += std::log(bandwidth_[d]);
  }
  metrics_.bandwidth_geomean.Set(
      std::exp(log_sum / static_cast<double>(dim_)));
  ComputeCoefficients();
}

void KdeHistogram::ComputeCoefficients() {
  inv_h_.resize(dim_);
  for (size_t d = 0; d < dim_; ++d) inv_h_[d] = kInvSqrt2 / bandwidth_[d];
  const size_t m = sample_.size();
  const std::vector<Point>& rows = sample_.items();
  coeff_.resize(m);
  double mass_sum = 0.0;
  for (const Point& x : rows) mass_sum += x[dim_];
  const double scale = mass_sum > 0.0 ? total_tuples_ / mass_sum : 0.0;
  for (size_t i = 0; i < m; ++i) {
    // Truncation weight: the same factor function, inv_h, and
    // ascending-dimension multiplication order as the estimation paths, so
    // the full-domain query's product cancels it to 1 within rounding.
    double p = 1.0;
    for (size_t d = 0; d < dim_; ++d) {
      p *= GaussBoxFactor(rows[i][d], domain_.lo(d), domain_.hi(d),
                          inv_h_[d]);
    }
    // Sample points live inside the domain, so p can only underflow to 0
    // for degenerate bandwidths; fall back to the untruncated kernel rather
    // than divide by zero.
    const double mass = rows[i][dim_];
    coeff_[i] = p > 0.0 ? (mass / p) * scale : mass * scale;
  }
}

void KdeHistogram::Refine(const Box& query, const CardinalityOracle& oracle) {
  metrics_.refines.Inc();
  obs::ScopedTimer timer(metrics_.refine_seconds);

  // Query boxes and oracle counts are untrusted: the same repairs and
  // rejections as the bucket-based families.
  std::optional<Box> sanitized =
      SanitizeFeedbackQuery(domain_, query, &refine_robustness_);
  if (!sanitized.has_value()) return;
  const Box& box = *sanitized;
  SanitizingOracle safe(oracle, &refine_robustness_);
  const double actual = safe.Count(box);

  // Bandwidth adaptation against the error this feedback exposed, computed
  // BEFORE the sample absorbs the feedback (the estimate the system would
  // have served). Sign-of-gradient with an error-proportional step: robust
  // to the wild magnitude swings of the raw gradient, deterministic, and
  // multiplicative so bandwidths stay positive.
  const size_t m_before = sample_.size();
  if (config_.adapt_bandwidth && m_before > 0) {
    std::vector<double> grad(dim_, 0.0);
    const double est = EstimateAndGrad(box, &grad);
    const double rel = (est - actual) / (1.0 + actual);
    if (rel != 0.0 && std::isfinite(rel)) {
      const double step =
          std::min(kLearnRate * std::min(std::abs(rel), 1.0), kMaxLogStep);
      const double lo_log = std::log(kMinBandwidthFactor);
      const double hi_log = std::log(kMaxBandwidthFactor);
      bool moved = false;
      for (size_t d = 0; d < dim_; ++d) {
        const double direction = rel * grad[d];
        if (direction == 0.0 || !std::isfinite(direction)) continue;
        const double delta = direction > 0.0 ? -step : step;
        const double next =
            std::clamp(log_factor_[d] + delta, lo_log, hi_log);
        if (next != log_factor_[d]) {
          log_factor_[d] = next;
          moved = true;
        }
      }
      if (moved) metrics_.adaptations.Inc();
    }
  }

  // Fold mass-weighted synthetic points into the shared reservoir: the
  // count-weighted point budget follows the serving layer's
  // FeedbackReservoir rule, and the observed count is split evenly across
  // the points so each carries the tuple mass it represents.
  ++feedbacks_;
  if (actual > 0.0) {
    const size_t points = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(actual / config_.tuples_per_point)), 1,
        config_.max_points_per_feedback);
    Point synth(dim_ + 1);
    synth[dim_] = actual / static_cast<double>(points);
    for (size_t k = 0; k < points; ++k) {
      for (size_t d = 0; d < dim_; ++d) {
        synth[d] = synth_rng_.Uniform(box.lo(d), box.hi(d));
      }
      sample_.Offer(synth);
    }
  }
  if (config_.age_interval > 0 && feedbacks_ % config_.age_interval == 0) {
    sample_.AgeHalve();
  }

  RecomputeBandwidths();
  metrics_.sample_points.Set(static_cast<double>(sample_.size()));
}

RobustnessStats KdeHistogram::robustness() const {
  RobustnessStats stats = refine_robustness_;
  stats.rejected_queries +=
      rejected_estimates_.load(std::memory_order_relaxed);
  return stats;
}

std::string KdeHistogram::SerializeBinary() const {
  std::string payload;
  binfmt::AppendU64(&payload, dim_);
  binfmt::AppendF64(&payload, total_tuples_);
  for (size_t d = 0; d < dim_; ++d) binfmt::AppendF64(&payload, domain_.lo(d));
  for (size_t d = 0; d < dim_; ++d) binfmt::AppendF64(&payload, domain_.hi(d));
  for (size_t d = 0; d < dim_; ++d) {
    binfmt::AppendF64(&payload, log_factor_[d]);
  }
  for (size_t d = 0; d < dim_; ++d) binfmt::AppendF64(&payload, scott_[d]);
  for (size_t d = 0; d < dim_; ++d) binfmt::AppendF64(&payload, bandwidth_[d]);

  // Sample rows are dim_+1 wide: coordinates plus the point's tuple mass.
  binfmt::AppendU64(&payload, sample_.size());
  for (const Point& x : sample_.items()) {
    for (size_t d = 0; d <= dim_; ++d) binfmt::AppendF64(&payload, x[d]);
  }
  binfmt::AppendU64(&payload, sample_.stream_length());
  binfmt::AppendU64(&payload, feedbacks_);

  binfmt::AppendU64(&payload, refine_robustness_.rejected_queries);
  binfmt::AppendU64(&payload, refine_robustness_.sanitized_queries);
  binfmt::AppendU64(&payload, refine_robustness_.clamped_feedback);
  binfmt::AppendU64(&payload, refine_robustness_.repaired_buckets);
  binfmt::AppendU64(&payload,
                    rejected_estimates_.load(std::memory_order_relaxed));

  const std::string synth_state = EngineText(synth_rng_.engine());
  const std::string slot_state = EngineText(sample_.rng().engine());
  binfmt::AppendU64(&payload, synth_state.size());
  payload.append(synth_state);
  binfmt::AppendU64(&payload, slot_state.size());
  payload.append(slot_state);

  return binfmt::Frame("STHK", kBinaryFormatVersion, payload);
}

StatusOr<std::unique_ptr<KdeHistogram>> KdeHistogram::DeserializeBinary(
    std::string_view bytes, const KdeConfig& config) {
  STHIST_RETURN_IF_ERROR(Validate(config));
  auto payload_or = binfmt::Unframe("STHK", kBinaryFormatVersion, bytes);
  if (!payload_or.ok()) return payload_or.status();
  const std::string_view payload = payload_or.value();
  const char* p = payload.data();
  const char* end = payload.data() + payload.size();

  const auto truncated = [] {
    return Status::InvalidArgument("kde snapshot: truncated payload");
  };

  uint64_t dim_u64 = 0;
  if (!ReadU64Checked(&p, end, &dim_u64)) return truncated();
  if (dim_u64 == 0 || dim_u64 > 1024) {
    return StatusF(StatusCode::kInvalidArgument,
                   "kde snapshot: implausible dimension %llu",
                   static_cast<unsigned long long>(dim_u64));
  }
  const size_t dim = static_cast<size_t>(dim_u64);

  double total = 0.0;
  if (!ReadF64Checked(&p, end, &total)) return truncated();
  if (!std::isfinite(total) || total < 0.0) {
    return Status::InvalidArgument("kde snapshot: bad total_tuples");
  }

  std::vector<double> lo(dim), hi(dim);
  for (size_t d = 0; d < dim; ++d) {
    if (!ReadF64Checked(&p, end, &lo[d])) return truncated();
  }
  for (size_t d = 0; d < dim; ++d) {
    if (!ReadF64Checked(&p, end, &hi[d])) return truncated();
  }
  for (size_t d = 0; d < dim; ++d) {
    if (!std::isfinite(lo[d]) || !std::isfinite(hi[d]) || lo[d] > hi[d]) {
      return Status::InvalidArgument("kde snapshot: bad domain bounds");
    }
  }

  std::vector<double> log_factor(dim), scott(dim), bandwidth(dim);
  for (size_t d = 0; d < dim; ++d) {
    if (!ReadF64Checked(&p, end, &log_factor[d])) return truncated();
  }
  for (size_t d = 0; d < dim; ++d) {
    if (!ReadF64Checked(&p, end, &scott[d])) return truncated();
  }
  for (size_t d = 0; d < dim; ++d) {
    if (!ReadF64Checked(&p, end, &bandwidth[d])) return truncated();
  }
  for (size_t d = 0; d < dim; ++d) {
    if (!std::isfinite(log_factor[d]) || !std::isfinite(scott[d]) ||
        scott[d] <= 0.0 || !std::isfinite(bandwidth[d]) ||
        bandwidth[d] <= 0.0) {
      return Status::InvalidArgument("kde snapshot: bad bandwidth state");
    }
  }

  uint64_t m_u64 = 0;
  if (!ReadU64Checked(&p, end, &m_u64)) return truncated();
  const uint64_t remaining = static_cast<uint64_t>(end - p);
  if (m_u64 > remaining / (8 * (dim + 1))) return truncated();
  const size_t m = static_cast<size_t>(m_u64);

  // Rows are dim+1 wide: coordinates followed by the point's tuple mass.
  std::vector<Point> rows(m, Point(dim + 1));
  for (size_t i = 0; i < m; ++i) {
    for (size_t d = 0; d <= dim; ++d) {
      if (!ReadF64Checked(&p, end, &rows[i][d])) return truncated();
      if (!std::isfinite(rows[i][d])) {
        return Status::InvalidArgument("kde snapshot: non-finite sample");
      }
    }
    if (rows[i][dim] < 0.0) {
      return Status::InvalidArgument("kde snapshot: negative sample mass");
    }
  }

  uint64_t stream_length = 0;
  uint64_t feedbacks = 0;
  if (!ReadU64Checked(&p, end, &stream_length)) return truncated();
  if (!ReadU64Checked(&p, end, &feedbacks)) return truncated();

  uint64_t robust[5] = {0, 0, 0, 0, 0};
  for (uint64_t& r : robust) {
    if (!ReadU64Checked(&p, end, &r)) return truncated();
  }

  std::string engine_texts[2];
  for (std::string& text : engine_texts) {
    uint64_t len = 0;
    if (!ReadU64Checked(&p, end, &len)) return truncated();
    if (len > static_cast<uint64_t>(end - p)) return truncated();
    text.assign(p, static_cast<size_t>(len));
    p += len;
  }
  if (p != end) {
    return Status::InvalidArgument("kde snapshot: trailing bytes");
  }

  KdeConfig restored_config = config;
  restored_config.sample_capacity = std::max(config.sample_capacity, m);
  auto hist = std::unique_ptr<KdeHistogram>(
      new KdeHistogram(Box(std::move(lo), std::move(hi)), total,
                       restored_config));
  hist->log_factor_ = std::move(log_factor);
  hist->scott_ = std::move(scott);
  hist->bandwidth_ = std::move(bandwidth);
  hist->sample_.Restore(std::move(rows), stream_length);
  // coeff_ is derived state: rebuilt from the restored sample + bandwidths
  // (bitwise-reproducible — same inputs, same expression).
  hist->ComputeCoefficients();
  hist->feedbacks_ = static_cast<size_t>(feedbacks);
  hist->refine_robustness_.rejected_queries = static_cast<size_t>(robust[0]);
  hist->refine_robustness_.sanitized_queries = static_cast<size_t>(robust[1]);
  hist->refine_robustness_.clamped_feedback = static_cast<size_t>(robust[2]);
  hist->refine_robustness_.repaired_buckets = static_cast<size_t>(robust[3]);
  hist->rejected_estimates_.store(robust[4], std::memory_order_relaxed);
  if (!RestoreEngine(engine_texts[0], &hist->synth_rng_.engine()) ||
      !RestoreEngine(engine_texts[1], &hist->sample_.rng().engine())) {
    return Status::InvalidArgument("kde snapshot: bad RNG engine state");
  }
  hist->metrics_.sample_points.Set(static_cast<double>(hist->sample_.size()));
  return hist;
}

}  // namespace sthist
