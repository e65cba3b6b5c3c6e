#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"

namespace sthist {

Dataset::Dataset(size_t dim) : dim_(dim) { STHIST_CHECK(dim > 0); }

void Dataset::Append(std::span<const double> p) {
  STHIST_CHECK(p.size() == dim_);
  values_.insert(values_.end(), p.begin(), p.end());
}

Status Dataset::Validate() const {
  for (size_t i = 0; i < size(); ++i) {
    std::span<const double> p = row(i);
    for (size_t d = 0; d < dim_; ++d) {
      if (!std::isfinite(p[d])) {
        return StatusF(StatusCode::kInvalidArgument,
                       "tuple %zu, attribute %zu is non-finite", i, d);
      }
    }
  }
  return Status::Ok();
}

void Dataset::Reserve(size_t n) { values_.reserve(n * dim_); }

Box Dataset::Bounds() const {
  STHIST_CHECK(size() > 0);
  std::vector<double> lo(dim_, std::numeric_limits<double>::infinity());
  std::vector<double> hi(dim_, -std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < size(); ++i) {
    std::span<const double> p = row(i);
    for (size_t d = 0; d < dim_; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  return Box(std::move(lo), std::move(hi));
}

size_t Dataset::CountInBox(const Box& box) const {
  STHIST_CHECK(box.dim() == dim_);
  size_t count = 0;
  for (size_t i = 0; i < size(); ++i) {
    if (box.ContainsPoint(row(i))) ++count;
  }
  return count;
}

Box Dataset::BoundsOf(std::span<const size_t> rows) const {
  STHIST_CHECK(!rows.empty());
  std::vector<double> lo(dim_, std::numeric_limits<double>::infinity());
  std::vector<double> hi(dim_, -std::numeric_limits<double>::infinity());
  for (size_t i : rows) {
    std::span<const double> p = row(i);
    for (size_t d = 0; d < dim_; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  return Box(std::move(lo), std::move(hi));
}

}  // namespace sthist
