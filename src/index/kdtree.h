#ifndef STHIST_INDEX_KDTREE_H_
#define STHIST_INDEX_KDTREE_H_

#include <cstdint>
#include <vector>

#include "core/box.h"
#include "data/dataset.h"

namespace sthist {

/// Bulk-loaded k-d tree supporting exact range counting.
///
/// This plays the role of the database execution engine in the paper's
/// feedback loop: after a range query "executes", STHoles learns the exact
/// number of tuples in each `query ∩ bucket` region. Counting is accelerated
/// by two prunings: a subtree whose bounding box is disjoint from the query
/// contributes 0, and a subtree whose bounding box lies fully inside the
/// query contributes its cached size without visiting points.
///
/// Node bounds live in one contiguous array, `dim` lows then `dim` highs
/// per node, and the disjoint, contained and point tests run inline on it.
/// The tree references the dataset it was built over; the dataset must
/// outlive the tree.
class KdTree {
 public:
  /// Builds the tree over all tuples of `data`. O(n log n).
  /// `leaf_size` bounds the number of points stored per leaf.
  explicit KdTree(const Dataset& data, size_t leaf_size = 32);

  KdTree(const KdTree&) = delete;
  KdTree& operator=(const KdTree&) = delete;

  /// Number of indexed tuples.
  size_t size() const { return order_.size(); }

  /// Exact number of tuples inside `box` (closed intervals).
  size_t Count(const Box& box) const;

  /// Appends the indices (into the underlying dataset) of all tuples inside
  /// `box` to `out`.
  void Collect(const Box& box, std::vector<size_t>* out) const;

 private:
  struct Node {
    uint32_t begin = 0;  // Range [begin, end) into order_.
    uint32_t end = 0;
    int32_t left = -1;   // Child node ids; -1 for leaves.
    int32_t right = -1;
  };

  // How a node's bounds relate to a query box (closed intervals).
  enum class Overlap { kDisjoint, kContained, kPartial };

  // Recursively builds the subtree over order_[begin, end) in pre-order;
  // returns its node id.
  int32_t Build(uint32_t begin, uint32_t end);

  size_t CountNode(int32_t node_id, const double* lo, const double* hi) const;
  void CollectNode(int32_t node_id, const double* lo, const double* hi,
                   std::vector<size_t>* out) const;

  Overlap Classify(int32_t node_id, const double* lo, const double* hi) const;
  bool PointInside(uint32_t tuple, const double* lo, const double* hi) const;

  const Dataset& data_;
  size_t dim_;
  size_t leaf_size_;
  std::vector<uint32_t> order_;  // Permutation of tuple indices.
  std::vector<Node> nodes_;
  // Tight bounds of each node's points: for node n, the dim_ lows at
  // 2 * dim_ * n, then the dim_ highs.
  std::vector<double> bounds_;
  int32_t root_ = -1;
};

}  // namespace sthist

#endif  // STHIST_INDEX_KDTREE_H_
