#include "workload/workload.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/rng.h"

namespace sthist {

Workload MakeWorkload(const Box& domain, const WorkloadConfig& config,
                      const Dataset* data) {
  STHIST_CHECK(config.volume_fraction > 0.0 && config.volume_fraction <= 1.0);
  if (config.centers == CenterDistribution::kData) {
    STHIST_CHECK_MSG(data != nullptr && data->size() > 0,
                     "data-following centers need a non-empty dataset");
  }

  const size_t dim = domain.dim();
  const double side_fraction =
      std::pow(config.volume_fraction, 1.0 / static_cast<double>(dim));

  Rng rng(config.seed);
  Workload workload;
  workload.reserve(config.num_queries);

  std::vector<double> lo(dim), hi(dim);
  for (size_t q = 0; q < config.num_queries; ++q) {
    for (size_t d = 0; d < dim; ++d) {
      double extent = domain.Extent(d);
      double side = side_fraction * extent;
      double center;
      if (config.centers == CenterDistribution::kUniform) {
        center = rng.Uniform(domain.lo(d), domain.hi(d));
      } else {
        center = data->value(rng.Index(data->size()), d);
      }
      // Shift the query inside the domain so its volume is exact.
      double start = center - 0.5 * side;
      start = std::clamp(start, domain.lo(d), domain.hi(d) - side);
      lo[d] = start;
      hi[d] = start + side;
    }
    workload.push_back(Box(lo, hi));
  }
  return workload;
}

Workload Permuted(const Workload& workload, uint64_t seed) {
  Workload out = workload;
  Rng rng(seed);
  rng.Shuffle(&out);
  return out;
}

StatusOr<Workload> MakeWorkloadChecked(const Box& domain,
                                       const WorkloadConfig& config,
                                       const Dataset* data) {
  if (domain.dim() == 0) {
    return Status::InvalidArgument("workload domain has zero dimensions");
  }
  for (size_t d = 0; d < domain.dim(); ++d) {
    if (!std::isfinite(domain.lo(d)) || !std::isfinite(domain.hi(d))) {
      return StatusF(StatusCode::kInvalidArgument,
                     "domain bound in dimension %zu is non-finite", d);
    }
  }
  if (domain.Volume() <= 0.0) {
    return Status::InvalidArgument("workload domain " + domain.ToString() +
                                   " has zero volume");
  }
  if (!std::isfinite(config.volume_fraction) ||
      config.volume_fraction <= 0.0 || config.volume_fraction > 1.0) {
    return StatusF(StatusCode::kInvalidArgument,
                   "volume_fraction must be in (0,1], got %g",
                   config.volume_fraction);
  }
  if (config.centers == CenterDistribution::kData &&
      (data == nullptr || data->size() == 0)) {
    return Status::InvalidArgument(
        "data-following centers need a non-empty dataset");
  }
  return MakeWorkload(domain, config, data);
}

Workload MakeGridWorkload(const Box& domain, size_t cells_per_dim,
                          uint64_t seed) {
  STHIST_CHECK(cells_per_dim >= 1);
  const size_t dim = domain.dim();
  size_t total = 1;
  for (size_t d = 0; d < dim; ++d) {
    STHIST_CHECK_MSG(total <= 10'000'000 / cells_per_dim,
                     "grid workload too large");
    total *= cells_per_dim;
  }

  Workload workload;
  workload.reserve(total);
  std::vector<size_t> cell(dim, 0);
  std::vector<double> lo(dim), hi(dim);
  for (size_t index = 0; index < total; ++index) {
    size_t rest = index;
    for (size_t d = 0; d < dim; ++d) {
      cell[d] = rest % cells_per_dim;
      rest /= cells_per_dim;
    }
    for (size_t d = 0; d < dim; ++d) {
      double step = domain.Extent(d) / static_cast<double>(cells_per_dim);
      lo[d] = domain.lo(d) + step * static_cast<double>(cell[d]);
      hi[d] = lo[d] + step;
    }
    workload.push_back(Box(lo, hi));
  }

  Rng rng(seed);
  rng.Shuffle(&workload);
  return workload;
}

}  // namespace sthist
