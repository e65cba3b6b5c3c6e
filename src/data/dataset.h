#ifndef STHIST_DATA_DATASET_H_
#define STHIST_DATA_DATASET_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/box.h"
#include "core/status.h"

namespace sthist {

/// An in-memory relation over numeric attributes.
///
/// Storage is row-major: the library's access patterns (k-d tree bulk load,
/// per-point dimension tests in MineClus) always touch all attributes of a
/// tuple together. Categorical attributes are assumed to be mapped to numbers
/// upstream, as in the paper.
class Dataset {
 public:
  /// Creates an empty dataset with `dim` attributes.
  explicit Dataset(size_t dim);

  /// Number of attributes.
  size_t dim() const { return dim_; }

  /// Number of tuples.
  size_t size() const { return dim_ == 0 ? 0 : values_.size() / dim_; }

  /// The i-th tuple as a contiguous span of `dim()` values.
  std::span<const double> row(size_t i) const {
    return {values_.data() + i * dim_, dim_};
  }

  /// Value of attribute d of tuple i.
  double value(size_t i, size_t d) const { return values_[i * dim_ + d]; }

  /// Appends one tuple. Requires p.size() == dim().
  void Append(std::span<const double> p);

  /// Scans for non-finite values — the one corruption every downstream
  /// consumer (bounds, k-d tree, clustering) silently mis-handles. Returns
  /// INVALID_ARGUMENT naming the first offending tuple and attribute.
  Status Validate() const;

  /// Reserves storage for `n` tuples.
  void Reserve(size_t n);

  /// The minimal bounding box of all tuples. Requires a non-empty dataset.
  Box Bounds() const;

  /// Counts tuples inside `box` by scanning. O(n * d); prefer KdTree for
  /// repeated counting.
  size_t CountInBox(const Box& box) const;

  /// Minimal bounding rectangle of a subset of tuples (by index). Requires a
  /// non-empty subset.
  Box BoundsOf(std::span<const size_t> rows) const;

 private:
  size_t dim_;
  std::vector<double> values_;
};

}  // namespace sthist

#endif  // STHIST_DATA_DATASET_H_
