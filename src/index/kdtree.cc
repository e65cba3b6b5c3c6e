#include "index/kdtree.h"

#include <algorithm>
#include <limits>
#include <span>

#include "core/check.h"

namespace sthist {

KdTree::KdTree(const Dataset& data, size_t leaf_size)
    : data_(data), dim_(data.dim()), leaf_size_(leaf_size) {
  STHIST_CHECK(leaf_size_ >= 1);
  order_.resize(data.size());
  for (uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  if (!order_.empty()) {
    const size_t nodes = 2 * order_.size() / leaf_size_ + 2;
    nodes_.reserve(nodes);
    bounds_.reserve(nodes * 2 * dim_);
    root_ = Build(0, static_cast<uint32_t>(order_.size()));
  }
}

int32_t KdTree::Build(uint32_t begin, uint32_t end) {
  const int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back({begin, end, -1, -1});
  const size_t base = bounds_.size();
  bounds_.resize(base + 2 * dim_);
  // Valid until the children append their bounds.
  double* lo = bounds_.data() + base;
  double* hi = lo + dim_;
  std::fill(lo, hi, std::numeric_limits<double>::infinity());
  std::fill(hi, hi + dim_, -std::numeric_limits<double>::infinity());
  for (uint32_t i = begin; i < end; ++i) {
    std::span<const double> p = data_.row(order_[i]);
    for (size_t d = 0; d < dim_; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }

  if (end - begin > leaf_size_) {
    // Split on the widest dimension of the tight bounds; this adapts to
    // skewed (clustered) data better than cycling dimensions by depth.
    size_t split_dim = 0;
    double widest = -1.0;
    for (size_t d = 0; d < dim_; ++d) {
      if (hi[d] - lo[d] > widest) {
        widest = hi[d] - lo[d];
        split_dim = d;
      }
    }

    uint32_t mid = begin + (end - begin) / 2;
    std::nth_element(order_.begin() + begin, order_.begin() + mid,
                     order_.begin() + end,
                     [&](uint32_t a, uint32_t b) {
                       return data_.value(a, split_dim) <
                              data_.value(b, split_dim);
                     });

    // Degenerate case: all points equal in every dimension (zero-extent
    // bounds). Keep such runs as one (possibly oversized) leaf.
    if (widest > 0.0) {
      const int32_t left = Build(begin, mid);
      const int32_t right = Build(mid, end);
      nodes_[id].left = left;
      nodes_[id].right = right;
    }
  }
  return id;
}

KdTree::Overlap KdTree::Classify(int32_t node_id, const double* lo,
                                 const double* hi) const {
  const double* node_lo = bounds_.data() + 2 * dim_ * node_id;
  const double* node_hi = node_lo + dim_;
  bool contained = true;
  for (size_t d = 0; d < dim_; ++d) {
    // Closed intervals: points on the query boundary count, so prune only
    // when the boxes do not even touch.
    if (node_hi[d] < lo[d] || node_lo[d] > hi[d]) return Overlap::kDisjoint;
    contained = contained && !(node_lo[d] < lo[d] || node_hi[d] > hi[d]);
  }
  return contained ? Overlap::kContained : Overlap::kPartial;
}

bool KdTree::PointInside(uint32_t tuple, const double* lo,
                         const double* hi) const {
  const double* p = data_.row(tuple).data();
  for (size_t d = 0; d < dim_; ++d) {
    if (p[d] < lo[d] || p[d] > hi[d]) return false;
  }
  return true;
}

size_t KdTree::Count(const Box& box) const {
  STHIST_CHECK(box.dim() == dim_);
  if (root_ < 0) return 0;
  return CountNode(root_, box.lo_data(), box.hi_data());
}

size_t KdTree::CountNode(int32_t node_id, const double* lo,
                         const double* hi) const {
  const Node& node = nodes_[node_id];
  switch (Classify(node_id, lo, hi)) {
    case Overlap::kDisjoint:
      return 0;
    case Overlap::kContained:
      return node.end - node.begin;
    case Overlap::kPartial:
      break;
  }
  if (node.left < 0) {
    size_t count = 0;
    for (uint32_t i = node.begin; i < node.end; ++i) {
      if (PointInside(order_[i], lo, hi)) ++count;
    }
    return count;
  }
  return CountNode(node.left, lo, hi) + CountNode(node.right, lo, hi);
}

void KdTree::Collect(const Box& box, std::vector<size_t>* out) const {
  STHIST_CHECK(box.dim() == dim_);
  if (root_ >= 0) CollectNode(root_, box.lo_data(), box.hi_data(), out);
}

void KdTree::CollectNode(int32_t node_id, const double* lo, const double* hi,
                         std::vector<size_t>* out) const {
  const Node& node = nodes_[node_id];
  switch (Classify(node_id, lo, hi)) {
    case Overlap::kDisjoint:
      return;
    case Overlap::kContained:
      for (uint32_t i = node.begin; i < node.end; ++i) {
        out->push_back(order_[i]);
      }
      return;
    case Overlap::kPartial:
      break;
  }
  if (node.left < 0) {
    for (uint32_t i = node.begin; i < node.end; ++i) {
      if (PointInside(order_[i], lo, hi)) out->push_back(order_[i]);
    }
    return;
  }
  CollectNode(node.left, lo, hi, out);
  CollectNode(node.right, lo, hi, out);
}

}  // namespace sthist
