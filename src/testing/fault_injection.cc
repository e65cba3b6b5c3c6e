#include "testing/fault_injection.h"

#include <cmath>
#include <limits>
#include <vector>

namespace sthist {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// How far out-of-domain tuples and shifted query boxes land, as a
/// multiple of the domain extent.
constexpr double kDisplacement = 2.0;

}  // namespace

Dataset CorruptDataset(const Dataset& data, const Box& domain,
                       const FaultConfig& config) {
  Dataset out(data.dim());
  out.Reserve(data.size());
  Rng rng(config.seed);
  std::vector<double> tuple(data.dim());
  size_t kind = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    std::span<const double> p = data.row(i);
    tuple.assign(p.begin(), p.end());
    if (config.rate > 0.0 && rng.Bernoulli(config.rate)) {
      size_t d = rng.Index(data.dim());
      switch (kind++ % 4) {
        case 0:
          tuple[d] = kNaN;
          break;
        case 1:
          tuple[d] = kInf;
          break;
        case 2:
          tuple[d] = -kInf;
          break;
        default:
          // Finite but far outside the domain.
          tuple[d] = domain.hi(d) + kDisplacement * domain.Extent(d);
          break;
      }
    }
    out.Append(tuple);
  }
  return out;
}

Dataset DropNonFiniteTuples(const Dataset& data, size_t* dropped) {
  Dataset out(data.dim());
  out.Reserve(data.size());
  size_t removed = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    std::span<const double> p = data.row(i);
    bool finite = true;
    for (double v : p) {
      if (!std::isfinite(v)) {
        finite = false;
        break;
      }
    }
    if (finite) {
      out.Append(p);
    } else {
      ++removed;
    }
  }
  if (dropped != nullptr) *dropped = removed;
  return out;
}

Workload CorruptWorkload(const Workload& workload, const Box& domain,
                         const FaultConfig& config) {
  Workload out;
  out.reserve(workload.size());
  Rng rng(config.seed + 1);
  size_t kind = 0;
  for (const Box& query : workload) {
    Box q = query;
    if (config.rate > 0.0 && q.dim() > 0 && rng.Bernoulli(config.rate)) {
      size_t d = rng.Index(q.dim());
      switch (kind++ % 4) {
        case 0:
          // Non-finite bound (mutators bypass the constructor invariant).
          q.set_lo(d, kNaN);
          break;
        case 1: {
          // Inverted interval.
          double lo = q.lo(d);
          q.set_lo(d, q.hi(d));
          q.set_hi(d, lo);
          break;
        }
        case 2:
          // Degenerate zero-extent interval.
          q.set_hi(d, q.lo(d));
          break;
        default: {
          // Shift the box entirely outside the domain.
          double shift =
              kDisplacement * std::max(domain.Extent(d), q.hi(d) - q.lo(d));
          q.set_lo(d, domain.hi(d) + shift);
          q.set_hi(d, domain.hi(d) + shift + (query.hi(d) - query.lo(d)));
          break;
        }
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

FaultyOracle::FaultyOracle(const CardinalityOracle& inner,
                           const FaultConfig& config)
    : inner_(inner), config_(config), rng_(config.seed + 2) {}

double FaultyOracle::Count(const Box& box) const {
  double truth = inner_.Count(box);
  ++calls_;
  if (config_.rate <= 0.0 || !rng_.Bernoulli(config_.rate)) {
    stale_count_ = truth;
    return truth;
  }
  ++faults_injected_;
  double answer = truth;
  switch (faults_injected_ % 4) {
    case 0:
      answer = kNaN;
      break;
    case 1:
      answer = -1.0 - truth;
      break;
    case 2: {
      // Multiplicative noise in [1/noise_factor, noise_factor].
      double factor = std::max(config_.noise_factor, 1.0);
      double exponent = rng_.Uniform(-1.0, 1.0);
      answer = truth * std::pow(factor, exponent);
      break;
    }
    default:
      // Stale: replay the previous answer (feedback lag under drift).
      answer = stale_count_;
      break;
  }
  // Deliberately do NOT refresh stale_count_ with the corrupted answer; it
  // tracks the last truthful count so staleness is bounded.
  return answer;
}

}  // namespace sthist
