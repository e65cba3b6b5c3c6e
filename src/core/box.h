#ifndef STHIST_CORE_BOX_H_
#define STHIST_CORE_BOX_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sthist {

/// A point in d-dimensional attribute-value space.
using Point = std::vector<double>;

/// Axis-aligned d-dimensional rectangle [lo_0,hi_0] x ... x [lo_{d-1},hi_{d-1}].
///
/// Boxes are the universal geometric currency of the library: histogram
/// buckets, range queries, cluster bounding rectangles and the data domain
/// are all boxes. Intervals are closed on both ends for point containment;
/// all volume computations treat the boundary as measure zero, which matches
/// the continuous attribute domains the paper assumes (categorical attributes
/// are mapped to numbers upstream).
///
/// Memory: one heap block per box holding all 2 * dim bounds, so a box is
/// 16 bytes plus that block. Buckets and query workloads hold boxes by the
/// hundred thousand, and a fleet holds a bucket tree per tenant.
class Box {
 public:
  /// Constructs an empty (0-dimensional) box.
  Box() = default;

  /// Constructs a box from per-dimension bounds. Requires lo.size() ==
  /// hi.size() and lo[i] <= hi[i] for all i.
  Box(const std::vector<double>& lo, const std::vector<double>& hi);

  /// A box spanning [lo, hi] in every one of `dim` dimensions.
  static Box Cube(size_t dim, double lo, double hi);

  Box(const Box& other);
  Box& operator=(const Box& other);
  /// A moved-from box is empty (0-dimensional).
  Box(Box&& other) noexcept;
  Box& operator=(Box&& other) noexcept;
  ~Box() = default;

  /// Number of dimensions.
  size_t dim() const { return dim_; }

  /// Lower bound in dimension d.
  double lo(size_t d) const { return bounds_[d]; }
  /// Upper bound in dimension d.
  double hi(size_t d) const { return bounds_[dim_ + d]; }

  /// Mutable access for in-place shrinking/growing. Callers must keep
  /// lo <= hi.
  void set_lo(size_t d, double v) { bounds_[d] = v; }
  void set_hi(size_t d, double v) { bounds_[dim_ + d] = v; }

  /// Side length in dimension d.
  double Extent(size_t d) const { return hi(d) - lo(d); }

  /// Contiguous per-dimension bounds, for kernels that consume raw planes
  /// (core/simd.h). Valid while the box is alive and unmodified.
  const double* lo_data() const { return bounds_.get(); }
  const double* hi_data() const { return bounds_.get() + dim_; }

  /// Product of all side lengths. A degenerate box has volume 0.
  double Volume() const;

  /// True when the point (closed intervals) lies inside the box.
  bool ContainsPoint(std::span<const double> p) const;

  /// True when `other` lies entirely within this box (closed; boundaries may
  /// touch).
  bool Contains(const Box& other) const;

  /// True when the open interiors overlap, i.e. the intersection has positive
  /// extent in every dimension. Boxes that merely share a boundary do not
  /// intersect under this definition.
  bool Intersects(const Box& other) const;

  /// The geometric intersection. Returns a degenerate box (zero extent in at
  /// least one dimension, clamped to be valid) when the interiors do not
  /// overlap.
  Box Intersection(const Box& other) const;

  /// Volume of the intersection with `other` (0 when disjoint).
  double IntersectionVolume(const Box& other) const;

  /// The smallest box containing both inputs. Requires equal dimensionality.
  static Box Enclosure(const Box& a, const Box& b);

  /// Grows this box (in place) to contain `other`.
  void ExtendToContain(const Box& other);

  /// True when all bounds match exactly.
  bool operator==(const Box& other) const;

  /// True when all bounds match within `eps`.
  bool ApproxEquals(const Box& other, double eps) const;

  /// Human-readable form, e.g. "[0,1]x[2,5]".
  std::string ToString() const;

 private:
  /// A box of `dim` dimensions with unset bounds.
  explicit Box(size_t dim);

  // lo(0..dim) then hi(0..dim).
  std::unique_ptr<double[]> bounds_;
  size_t dim_ = 0;
};

}  // namespace sthist

#endif  // STHIST_CORE_BOX_H_
