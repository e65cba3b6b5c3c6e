#include "histogram/registry.h"

#include <cmath>
#include <string>
#include <utility>

#include "core/rng.h"
#include "histogram/avi.h"
#include "histogram/equiwidth.h"
#include "histogram/isomer.h"
#include "histogram/kde.h"
#include "histogram/mhist.h"
#include "histogram/sampling.h"
#include "histogram/stgrid.h"
#include "histogram/stholes.h"
#include "histogram/trivial.h"

namespace sthist {
namespace {

// Seed roles for the sampled families (DeriveSeed keeps one experiment seed
// from aliasing streams across estimators and with the workload streams).
constexpr uint64_t kSamplingSeedRole = 0x73616D70;  // "samp"
constexpr uint64_t kKdeSeedRole = 0x6B646500;       // "kde"

Status RequireDomain(const HistogramConfig& config) {
  if (config.domain.dim() == 0) {
    return Status::InvalidArgument("estimator config: domain is required");
  }
  return Status::Ok();
}

Status RequireData(std::string_view name, const HistogramConfig& config) {
  STHIST_RETURN_IF_ERROR(RequireDomain(config));
  if (config.data == nullptr) {
    return StatusF(StatusCode::kInvalidArgument,
                   "estimator '%.*s' needs a dataset (config.data is null)",
                   static_cast<int>(name.size()), name.data());
  }
  return Status::Ok();
}

/// Derived per-dimension resolution: round(buckets^(1/dim)), floored at 2
/// so a grid family always has at least one split per dimension.
size_t DerivedCellsPerDim(const HistogramConfig& config) {
  if (config.cells_per_dim > 0) return config.cells_per_dim;
  const double dim = static_cast<double>(config.domain.dim());
  const double cells =
      std::round(std::pow(static_cast<double>(config.buckets), 1.0 / dim));
  return cells < 2.0 ? 2 : static_cast<size_t>(cells);
}

size_t DerivedBucketsPerDim(const HistogramConfig& config) {
  if (config.buckets_per_dim > 0) return config.buckets_per_dim;
  const size_t dim = config.domain.dim();
  const size_t per_dim = config.buckets / (dim == 0 ? 1 : dim);
  return per_dim == 0 ? 1 : per_dim;
}

}  // namespace

const std::vector<std::string>& RegisteredNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "trivial", "equiwidth", "avi",    "sampling", "mhist",
      "stgrid",  "isomer",    "stholes", "kde",
  };
  return *names;
}

StatusOr<std::unique_ptr<Histogram>> MakeHistogram(
    std::string_view name, const HistogramConfig& config) {
  if (name == "trivial") {
    STHIST_RETURN_IF_ERROR(RequireDomain(config));
    return std::unique_ptr<Histogram>(
        new TrivialHistogram(config.domain, config.total_tuples));
  }
  if (name == "equiwidth") {
    STHIST_RETURN_IF_ERROR(RequireData(name, config));
    return std::unique_ptr<Histogram>(new EquiWidthHistogram(
        *config.data, config.domain, DerivedCellsPerDim(config)));
  }
  if (name == "avi") {
    STHIST_RETURN_IF_ERROR(RequireData(name, config));
    return std::unique_ptr<Histogram>(new AviHistogram(
        *config.data, config.domain, DerivedBucketsPerDim(config)));
  }
  if (name == "sampling") {
    STHIST_RETURN_IF_ERROR(RequireData(name, config));
    if (config.data->size() == 0) {
      return Status::InvalidArgument(
          "estimator 'sampling' needs a non-empty dataset");
    }
    if (config.buckets == 0) {
      return Status::InvalidArgument(
          "estimator 'sampling' needs a positive bucket (sample) budget");
    }
    return std::unique_ptr<Histogram>(new SamplingEstimator(
        *config.data, config.buckets,
        DeriveSeed(config.seed, kSamplingSeedRole)));
  }
  if (name == "mhist") {
    STHIST_RETURN_IF_ERROR(RequireData(name, config));
    if (config.buckets == 0) {
      return Status::InvalidArgument(
          "estimator 'mhist' needs a positive bucket budget");
    }
    MHistConfig mhist;
    mhist.max_buckets = config.buckets;
    return std::unique_ptr<Histogram>(
        new MHistHistogram(*config.data, config.domain, mhist));
  }
  if (name == "stgrid") {
    STHIST_RETURN_IF_ERROR(RequireDomain(config));
    STGridConfig stgrid;
    stgrid.cells_per_dim = DerivedCellsPerDim(config);
    return std::unique_ptr<Histogram>(
        new STGridHistogram(config.domain, config.total_tuples, stgrid));
  }
  if (name == "isomer") {
    STHIST_RETURN_IF_ERROR(RequireDomain(config));
    IsomerConfig isomer;
    isomer.max_buckets = config.buckets;
    return std::unique_ptr<Histogram>(
        new IsomerHistogram(config.domain, config.total_tuples, isomer));
  }
  if (name == "stholes") {
    STHIST_RETURN_IF_ERROR(RequireDomain(config));
    STHolesConfig stholes;
    stholes.max_buckets = config.buckets;
    return std::unique_ptr<Histogram>(
        new STHoles(config.domain, config.total_tuples, stholes));
  }
  if (name == "kde") {
    STHIST_RETURN_IF_ERROR(RequireDomain(config));
    KdeConfig kde;
    kde.sample_capacity = config.buckets;
    kde.seed = DeriveSeed(config.seed, kKdeSeedRole);
    STHIST_RETURN_IF_ERROR(Validate(kde));
    return std::unique_ptr<Histogram>(
        new KdeHistogram(config.domain, config.total_tuples, kde));
  }

  std::string known;
  for (const std::string& n : RegisteredNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return StatusF(StatusCode::kNotFound,
                 "unknown estimator '%.*s' (registered: %s)",
                 static_cast<int>(name.size()), name.data(), known.c_str());
}

std::string_view EstimatorNameForBlob(std::string_view blob) {
  if (blob.size() < 4) return {};
  const std::string_view magic = blob.substr(0, 4);
  if (magic == "STHB") return "stholes";
  if (magic == "STHK") return "kde";
  return {};
}

StatusOr<std::unique_ptr<Histogram>> RestoreHistogram(
    std::string_view blob, const HistogramConfig& config) {
  const std::string_view name = EstimatorNameForBlob(blob);
  if (name == "stholes") {
    STHolesConfig stholes;
    stholes.max_buckets = config.buckets;
    auto restored = STHoles::DeserializeBinary(blob, stholes);
    if (!restored.ok()) return restored.status();
    return std::unique_ptr<Histogram>(std::move(restored.value()));
  }
  if (name == "kde") {
    KdeConfig kde;
    if (config.buckets != 0) kde.sample_capacity = config.buckets;
    kde.seed = DeriveSeed(config.seed, kKdeSeedRole);
    auto restored = KdeHistogram::DeserializeBinary(blob, kde);
    if (!restored.ok()) return restored.status();
    return std::unique_ptr<Histogram>(std::move(restored.value()));
  }
  return Status::InvalidArgument(
      "unrecognized histogram snapshot magic (not a serialized estimator)");
}

}  // namespace sthist
