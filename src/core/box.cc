#include "core/box.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "core/check.h"

namespace sthist {

Box::Box(size_t dim)
    : bounds_(dim == 0 ? nullptr
                       : std::make_unique_for_overwrite<double[]>(2 * dim)),
      dim_(dim) {}

Box::Box(const std::vector<double>& lo, const std::vector<double>& hi)
    : Box(lo.size()) {
  STHIST_CHECK(lo.size() == hi.size());
  for (size_t d = 0; d < dim_; ++d) {
    STHIST_CHECK_MSG(lo[d] <= hi[d], "dim %zu: lo=%g hi=%g", d, lo[d], hi[d]);
    set_lo(d, lo[d]);
    set_hi(d, hi[d]);
  }
}

Box Box::Cube(size_t dim, double lo, double hi) {
  STHIST_CHECK_MSG(dim == 0 || lo <= hi, "lo=%g hi=%g", lo, hi);
  Box box(dim);
  std::fill_n(box.bounds_.get(), dim, lo);
  std::fill_n(box.bounds_.get() + dim, dim, hi);
  return box;
}

Box::Box(const Box& other) : Box(other.dim_) {
  std::copy_n(other.bounds_.get(), 2 * dim_, bounds_.get());
}

Box& Box::operator=(const Box& other) {
  if (this == &other) return *this;
  if (dim_ != other.dim_) *this = Box(other.dim_);
  std::copy_n(other.bounds_.get(), 2 * dim_, bounds_.get());
  return *this;
}

Box::Box(Box&& other) noexcept
    : bounds_(std::move(other.bounds_)), dim_(std::exchange(other.dim_, 0)) {}

Box& Box::operator=(Box&& other) noexcept {
  bounds_ = std::move(other.bounds_);
  dim_ = std::exchange(other.dim_, 0);
  return *this;
}

double Box::Volume() const {
  double v = 1.0;
  for (size_t d = 0; d < dim(); ++d) v *= Extent(d);
  return v;
}

bool Box::ContainsPoint(std::span<const double> p) const {
  STHIST_DCHECK(p.size() == dim());
  for (size_t d = 0; d < dim(); ++d) {
    if (p[d] < lo(d) || p[d] > hi(d)) return false;
  }
  return true;
}

bool Box::Contains(const Box& other) const {
  STHIST_DCHECK(other.dim() == dim());
  for (size_t d = 0; d < dim(); ++d) {
    if (other.lo(d) < lo(d) || other.hi(d) > hi(d)) return false;
  }
  return true;
}

bool Box::Intersects(const Box& other) const {
  STHIST_DCHECK(other.dim() == dim());
  for (size_t d = 0; d < dim(); ++d) {
    if (other.hi(d) <= lo(d) || other.lo(d) >= hi(d)) return false;
  }
  return true;
}

Box Box::Intersection(const Box& other) const {
  STHIST_DCHECK(other.dim() == dim());
  Box out(dim());
  for (size_t d = 0; d < dim(); ++d) {
    const double lo_d = std::max(lo(d), other.lo(d));
    const double hi_d = std::min(hi(d), other.hi(d));
    out.set_lo(d, lo_d);
    // Disjoint: clamp to a degenerate box.
    out.set_hi(d, hi_d < lo_d ? lo_d : hi_d);
  }
  return out;
}

double Box::IntersectionVolume(const Box& other) const {
  STHIST_DCHECK(other.dim() == dim());
  double v = 1.0;
  for (size_t d = 0; d < dim(); ++d) {
    double lo_d = std::max(lo(d), other.lo(d));
    double hi_d = std::min(hi(d), other.hi(d));
    if (hi_d <= lo_d) return 0.0;
    v *= hi_d - lo_d;
  }
  return v;
}

Box Box::Enclosure(const Box& a, const Box& b) {
  STHIST_CHECK(a.dim() == b.dim());
  Box out(a.dim());
  for (size_t d = 0; d < a.dim(); ++d) {
    out.set_lo(d, std::min(a.lo(d), b.lo(d)));
    out.set_hi(d, std::max(a.hi(d), b.hi(d)));
  }
  return out;
}

void Box::ExtendToContain(const Box& other) {
  STHIST_CHECK(other.dim() == dim());
  for (size_t d = 0; d < dim(); ++d) {
    set_lo(d, std::min(lo(d), other.lo(d)));
    set_hi(d, std::max(hi(d), other.hi(d)));
  }
}

bool Box::operator==(const Box& other) const {
  return dim_ == other.dim_ &&
         std::equal(bounds_.get(), bounds_.get() + 2 * dim_,
                    other.bounds_.get());
}

bool Box::ApproxEquals(const Box& other, double eps) const {
  if (other.dim() != dim()) return false;
  for (size_t d = 0; d < dim(); ++d) {
    if (std::abs(lo(d) - other.lo(d)) > eps) return false;
    if (std::abs(hi(d) - other.hi(d)) > eps) return false;
  }
  return true;
}

std::string Box::ToString() const {
  std::string out;
  char buf[64];
  for (size_t d = 0; d < dim(); ++d) {
    std::snprintf(buf, sizeof(buf), "%s[%.4g,%.4g]", d == 0 ? "" : "x", lo(d),
                  hi(d));
    out += buf;
  }
  return out;
}

}  // namespace sthist
