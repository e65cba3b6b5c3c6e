#include "workload/drift.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/check.h"
#include "core/rng.h"

namespace sthist {

namespace {

// DeriveSeed roles for the schedule's independent random streams (never
// seed+k — see core/rng.h).
constexpr uint64_t kRoleData = 0xD0;
constexpr uint64_t kRoleQueries = 0xD1;
constexpr uint64_t kRoleNoise = 0xD2;
constexpr uint64_t kRoleHotspot = 0xD3;

constexpr double kDomainLo = 0.0;
constexpr double kDomainHi = 1000.0;
constexpr double kBandHalfwidth = 25.0;

// Per-phase seed for one named stream: double derivation keeps every
// (seed, role, phase) triple far from every other in seed space.
uint64_t PhaseSeed(uint64_t seed, uint64_t role, size_t phase) {
  return DeriveSeed(DeriveSeed(seed, role), static_cast<uint64_t>(phase));
}

// Band-center offset of phase p: a linear sweep across [-span/2, +span/2]
// of the domain extent, 0 for a single-phase schedule.
double PhaseOffsetFraction(const DriftConfig& config, size_t phase) {
  if (config.phases <= 1) return 0.0;
  double t = static_cast<double>(phase) /
             static_cast<double>(config.phases - 1);
  return (t - 0.5) * config.move_span;
}

// The Cross generator with a translated band center: identical to MakeCross
// except the narrow bands sit at center + offset instead of the domain
// center. Using the same seed for every phase makes the phases the *same*
// tuple draws at shifted positions — the clusters genuinely move.
GeneratedData MakeOffsetCross(size_t dim, size_t tuples_per_cluster,
                              size_t noise_tuples, uint64_t seed,
                              double offset_fraction) {
  const Box domain = Box::Cube(dim, kDomainLo, kDomainHi);
  const double extent = kDomainHi - kDomainLo;
  double center = 0.5 * (kDomainLo + kDomainHi) + offset_fraction * extent;
  // Keep the band inside the domain whatever the sweep asks for.
  center = std::clamp(center, kDomainLo + kBandHalfwidth,
                      kDomainHi - kBandHalfwidth);
  const double band_lo = center - kBandHalfwidth;
  const double band_hi = center + kBandHalfwidth;

  Rng rng(seed);
  GeneratedData out{Dataset(dim), domain, {}};
  out.data.Reserve(dim * tuples_per_cluster + noise_tuples);

  Point p(dim);
  for (size_t axis = 0; axis < dim; ++axis) {
    for (size_t i = 0; i < tuples_per_cluster; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        p[d] = (d == axis) ? rng.Uniform(kDomainLo, kDomainHi)
                           : rng.Uniform(band_lo, band_hi);
      }
      out.data.Append(p);
    }
    std::vector<double> lo(dim, band_lo), hi(dim, band_hi);
    lo[axis] = kDomainLo;
    hi[axis] = kDomainHi;
    PlantedCluster cluster;
    cluster.extent = Box(std::move(lo), std::move(hi));
    for (size_t d = 0; d < dim; ++d) {
      if (d != axis) cluster.relevant_dims.push_back(d);
    }
    cluster.tuples = tuples_per_cluster;
    out.truth.push_back(std::move(cluster));
  }

  Point noise(dim);
  for (size_t i = 0; i < noise_tuples; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      noise[d] = rng.Uniform(kDomainLo, kDomainHi);
    }
    out.data.Append(noise);
  }
  return out;
}

// Queries whose centers are uniform inside `hotspot` but whose side lengths
// come from the volume fraction of the *full* domain, so per-query
// selectivity stays comparable to the non-drifting workloads. Queries are
// shifted (not clipped) into the domain, like MakeWorkload.
Workload MakeHotspotWorkload(const Box& domain, const Box& hotspot,
                             const WorkloadConfig& config, uint64_t seed) {
  const size_t dim = domain.dim();
  const double side_fraction =
      std::pow(config.volume_fraction, 1.0 / static_cast<double>(dim));
  Rng rng(seed);
  Workload workload;
  workload.reserve(config.num_queries);
  std::vector<double> lo(dim), hi(dim);
  for (size_t q = 0; q < config.num_queries; ++q) {
    for (size_t d = 0; d < dim; ++d) {
      double side = side_fraction * domain.Extent(d);
      double center = rng.Uniform(hotspot.lo(d), hotspot.hi(d));
      double start = center - 0.5 * side;
      start = std::clamp(start, domain.lo(d), domain.hi(d) - side);
      lo[d] = start;
      hi[d] = start + side;
    }
    workload.push_back(Box(lo, hi));
  }
  return workload;
}

// A random sub-box of `domain` with `volume_fraction` of its volume, the
// hotspot of one phase.
Box MakeHotspotBox(const Box& domain, double volume_fraction, uint64_t seed) {
  const size_t dim = domain.dim();
  const double side_fraction =
      std::pow(volume_fraction, 1.0 / static_cast<double>(dim));
  Rng rng(seed);
  std::vector<double> lo(dim), hi(dim);
  for (size_t d = 0; d < dim; ++d) {
    double side = side_fraction * domain.Extent(d);
    double start = rng.Uniform(domain.lo(d), domain.hi(d) - side);
    lo[d] = start;
    hi[d] = start + side;
  }
  return Box(std::move(lo), std::move(hi));
}

// Sorts `queries` into the adversarial sweep order of phase p: lexicographic
// on the lower bounds starting from a phase-rotated axis, direction
// alternating with phase parity. A fully deterministic, maximally
// autocorrelated learning order — the opposite of the shuffled workloads the
// histogram is robust to.
void SortAdversarial(size_t phase, Workload* queries) {
  if (queries->empty()) return;
  const size_t dim = queries->front().dim();
  const size_t axis = phase % dim;
  const bool descending = (phase % 2) == 1;
  std::sort(queries->begin(), queries->end(),
            [dim, axis, descending](const Box& a, const Box& b) {
              for (size_t k = 0; k < dim; ++k) {
                size_t d = (axis + k) % dim;
                if (a.lo(d) != b.lo(d)) {
                  return descending ? a.lo(d) > b.lo(d) : a.lo(d) < b.lo(d);
                }
              }
              for (size_t k = 0; k < dim; ++k) {
                size_t d = (axis + k) % dim;
                if (a.hi(d) != b.hi(d)) {
                  return descending ? a.hi(d) > b.hi(d) : a.hi(d) < b.hi(d);
                }
              }
              return false;
            });
}

}  // namespace

StatusOr<DriftScenario> ParseDriftScenario(std::string_view name) {
  if (name == "cross-move") return DriftScenario::kMovingCross;
  if (name == "churn") return DriftScenario::kClusterChurn;
  if (name == "hotspot") return DriftScenario::kHotspot;
  if (name == "adversarial") return DriftScenario::kAdversarial;
  return Status::NotFound("unknown drift scenario: " + std::string(name) +
                          " (try cross-move, churn, hotspot, adversarial)");
}

const char* DriftScenarioName(DriftScenario scenario) {
  switch (scenario) {
    case DriftScenario::kMovingCross:
      return "cross-move";
    case DriftScenario::kClusterChurn:
      return "churn";
    case DriftScenario::kHotspot:
      return "hotspot";
    case DriftScenario::kAdversarial:
      return "adversarial";
  }
  return "unknown";
}

Status Validate(const DriftConfig& config) {
  if (config.phases == 0) {
    return Status::InvalidArgument("drift schedule needs at least one phase");
  }
  if (config.dim < 2) {
    return Status::InvalidArgument("drift datasets need dim >= 2");
  }
  if (config.tuples < 100) {
    return StatusF(StatusCode::kInvalidArgument,
                   "drift phases need >= 100 tuples, got %zu", config.tuples);
  }
  if (!std::isfinite(config.move_span) || config.move_span < 0.0 ||
      config.move_span >= 1.0) {
    return StatusF(StatusCode::kInvalidArgument,
                   "move_span must be in [0,1), got %g", config.move_span);
  }
  if (config.churn_active == 0 || config.churn_active > kChurnPool) {
    return StatusF(StatusCode::kInvalidArgument,
                   "churn needs 1 <= active (%zu) <= pool (%zu)",
                   config.churn_active, kChurnPool);
  }
  if (!std::isfinite(config.hotspot_volume_fraction) ||
      config.hotspot_volume_fraction <= 0.0 ||
      config.hotspot_volume_fraction > 1.0) {
    return StatusF(StatusCode::kInvalidArgument,
                   "hotspot_volume_fraction must be in (0,1], got %g",
                   config.hotspot_volume_fraction);
  }
  return Status::Ok();
}

size_t DriftSchedule::total_queries() const {
  size_t total = 0;
  for (const DriftPhase& p : phases_) total += p.queries.size();
  return total;
}

StatusOr<DriftSchedule> MakeDriftSchedule(const DriftConfig& drift,
                                          const WorkloadConfig& workload) {
  STHIST_RETURN_IF_ERROR(Validate(drift));

  DriftSchedule schedule;
  schedule.scenario_ = drift.scenario;
  schedule.domain_ = Box::Cube(drift.dim, kDomainLo, kDomainHi);
  schedule.phases_.reserve(drift.phases);

  const size_t cluster_tuples = drift.tuples * 10 / 11;
  const size_t noise_tuples = drift.tuples - cluster_tuples;

  switch (drift.scenario) {
    case DriftScenario::kMovingCross: {
      // One seed for every phase: the same draws at shifted band centers.
      const uint64_t data_seed = DeriveSeed(drift.seed, kRoleData);
      const size_t per_cluster =
          std::max<size_t>(cluster_tuples / drift.dim, 1);
      for (size_t p = 0; p < drift.phases; ++p) {
        DriftPhase phase;
        phase.data =
            MakeOffsetCross(drift.dim, per_cluster, noise_tuples, data_seed,
                            PhaseOffsetFraction(drift, p));
        WorkloadConfig wc = workload;
        wc.centers = CenterDistribution::kData;  // Queries follow the move.
        wc.seed = PhaseSeed(drift.seed, kRoleQueries, p);
        StatusOr<Workload> queries =
            MakeWorkloadChecked(schedule.domain_, wc, &phase.data.data);
        if (!queries.ok()) return queries.status();
        phase.queries = *std::move(queries);
        schedule.phases_.push_back(std::move(phase));
      }
      break;
    }

    case DriftScenario::kClusterChurn: {
      // A fixed pool of single-cluster Gauss snapshots; each phase activates
      // a sliding window over the pool, so clusters appear and vanish.
      std::vector<GeneratedData> pool;
      pool.reserve(kChurnPool);
      const size_t per_cluster =
          std::max<size_t>(cluster_tuples / drift.churn_active, 1);
      for (size_t c = 0; c < kChurnPool; ++c) {
        GaussConfig gc;
        gc.dim = drift.dim;
        gc.num_clusters = 1;
        gc.cluster_tuples = per_cluster;
        gc.noise_tuples = 0;
        gc.min_subspace_dims = std::min<size_t>(2, drift.dim);
        gc.max_subspace_dims = std::min<size_t>(5, drift.dim);
        gc.seed = PhaseSeed(drift.seed, kRoleData, c);
        STHIST_RETURN_IF_ERROR(Validate(gc));
        pool.push_back(MakeGauss(gc));
      }
      // Shared noise: identical in every phase, so only the clusters churn.
      Rng noise_rng(DeriveSeed(drift.seed, kRoleNoise));
      Dataset noise(drift.dim);
      noise.Reserve(noise_tuples);
      Point p(drift.dim);
      for (size_t i = 0; i < noise_tuples; ++i) {
        for (size_t d = 0; d < drift.dim; ++d) {
          p[d] = noise_rng.Uniform(kDomainLo, kDomainHi);
        }
        noise.Append(p);
      }
      for (size_t ph = 0; ph < drift.phases; ++ph) {
        DriftPhase phase;
        phase.data.domain = schedule.domain_;
        Dataset data(drift.dim);
        for (size_t j = 0; j < drift.churn_active; ++j) {
          const GeneratedData& member = pool[(ph + j) % kChurnPool];
          for (size_t i = 0; i < member.data.size(); ++i) {
            data.Append(member.data.row(i));
          }
          for (const PlantedCluster& truth : member.truth) {
            phase.data.truth.push_back(truth);
          }
        }
        for (size_t i = 0; i < noise.size(); ++i) data.Append(noise.row(i));
        phase.data.data = std::move(data);
        WorkloadConfig wc = workload;
        wc.centers = CenterDistribution::kData;  // Queries track the churn.
        wc.seed = PhaseSeed(drift.seed, kRoleQueries, ph);
        StatusOr<Workload> queries =
            MakeWorkloadChecked(schedule.domain_, wc, &phase.data.data);
        if (!queries.ok()) return queries.status();
        phase.queries = *std::move(queries);
        schedule.phases_.push_back(std::move(phase));
      }
      break;
    }

    case DriftScenario::kHotspot: {
      // Data never changes; only where the queries concentrate does.
      const size_t per_cluster =
          std::max<size_t>(cluster_tuples / drift.dim, 1);
      GeneratedData base =
          MakeOffsetCross(drift.dim, per_cluster, noise_tuples,
                          DeriveSeed(drift.seed, kRoleData), 0.0);
      for (size_t p = 0; p < drift.phases; ++p) {
        DriftPhase phase;
        phase.data = base;
        Box hotspot =
            MakeHotspotBox(schedule.domain_, drift.hotspot_volume_fraction,
                           PhaseSeed(drift.seed, kRoleHotspot, p));
        phase.queries =
            MakeHotspotWorkload(schedule.domain_, hotspot, workload,
                                PhaseSeed(drift.seed, kRoleQueries, p));
        schedule.phases_.push_back(std::move(phase));
      }
      break;
    }

    case DriftScenario::kAdversarial: {
      // Fixed data; each phase replays a fresh query draw in a pathological
      // sweep order. The workload's own center distribution is honored.
      const size_t per_cluster =
          std::max<size_t>(cluster_tuples / drift.dim, 1);
      GeneratedData base =
          MakeOffsetCross(drift.dim, per_cluster, noise_tuples,
                          DeriveSeed(drift.seed, kRoleData), 0.0);
      for (size_t p = 0; p < drift.phases; ++p) {
        DriftPhase phase;
        phase.data = base;
        WorkloadConfig wc = workload;
        wc.seed = PhaseSeed(drift.seed, kRoleQueries, p);
        StatusOr<Workload> queries =
            MakeWorkloadChecked(schedule.domain_, wc, &phase.data.data);
        if (!queries.ok()) return queries.status();
        phase.queries = *std::move(queries);
        SortAdversarial(p, &phase.queries);
        schedule.phases_.push_back(std::move(phase));
      }
      break;
    }
  }

  return schedule;
}

PhasedOracle::PhasedOracle(const DriftSchedule& schedule) {
  STHIST_CHECK(schedule.phase_count() > 0);
  executors_.reserve(schedule.phase_count());
  for (size_t p = 0; p < schedule.phase_count(); ++p) {
    executors_.push_back(
        std::make_unique<Executor>(schedule.phase(p).data.data));
  }
}

double PhasedOracle::Count(const Box& box) const {
  return executors_[phase_.load(std::memory_order_acquire)]->Count(box);
}

void PhasedOracle::SetPhase(size_t p) {
  STHIST_CHECK(p < executors_.size());
  phase_.store(p, std::memory_order_release);
}

}  // namespace sthist
