#include "index/flat_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/check.h"
#include "core/simd.h"

namespace sthist {

namespace {

// Dimension along which the entry centers of [begin, end) spread widest:
// the axis Build median-splits a node's entries along.
size_t WidestCenterDim(const FlatBoxIndex::Entry* begin,
                       const FlatBoxIndex::Entry* end) {
  const size_t dim = begin->box.dim();
  size_t best_dim = 0;
  double best_spread = -1.0;
  for (size_t d = 0; d < dim; ++d) {
    double lo = begin->box.lo(d) + begin->box.hi(d);
    double hi = lo;
    for (const FlatBoxIndex::Entry* e = begin + 1; e != end; ++e) {
      const double center2 = e->box.lo(d) + e->box.hi(d);
      lo = std::min(lo, center2);
      hi = std::max(hi, center2);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_dim = d;
    }
  }
  return best_dim;
}

}  // namespace

void FlatBoxIndex::Clear() {
  dim_ = 0;
  size_ = 0;
  stride_ = 0;
  lo_.clear();
  hi_.clear();
  ids_.clear();
  nodes_.clear();
  node_lo_.clear();
  node_hi_.clear();
}

void FlatBoxIndex::Build(std::vector<Entry>* entries) {
  const uint32_t n = static_cast<uint32_t>(entries->size());
  Entry* data = entries->data();

  // Pass 1: BFS partition. Ranges are median-split in place; children are
  // created back-to-back so the right child is always left + 1. Bounds are
  // computed at node creation, when the node's entry range is known.
  struct Range {
    int32_t node = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  struct LeafRange {
    int32_t node = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  auto create_node = [&](uint32_t begin, uint32_t end) {
    const int32_t id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    node_lo_.resize(node_lo_.size() + dim_);
    node_hi_.resize(node_hi_.size() + dim_);
    double* nlo = node_lo_.data() + static_cast<size_t>(id) * dim_;
    double* nhi = node_hi_.data() + static_cast<size_t>(id) * dim_;
    for (size_t d = 0; d < dim_; ++d) {
      double lo = data[begin].box.lo(d);
      double hi = data[begin].box.hi(d);
      for (uint32_t i = begin + 1; i < end; ++i) {
        lo = std::min(lo, data[i].box.lo(d));
        hi = std::max(hi, data[i].box.hi(d));
      }
      nlo[d] = lo;
      nhi[d] = hi;
    }
    return id;
  };

  std::vector<Range> queue;
  std::vector<LeafRange> leaves;
  queue.push_back({create_node(0, n), 0, n});
  for (size_t at = 0; at < queue.size(); ++at) {
    const Range range = queue[at];
    const uint32_t count = range.end - range.begin;
    if (count <= kLeafCapacity) {
      leaves.push_back({range.node, range.begin, range.end});
      continue;
    }
    const size_t split_dim =
        WidestCenterDim(data + range.begin, data + range.end);
    const uint32_t mid = range.begin + count / 2;
    std::nth_element(data + range.begin, data + mid, data + range.end,
                     [split_dim](const Entry& a, const Entry& b) {
                       return a.box.lo(split_dim) + a.box.hi(split_dim) <
                              b.box.lo(split_dim) + b.box.hi(split_dim);
                     });
    const int32_t left = create_node(range.begin, mid);
    const int32_t right = create_node(mid, range.end);
    STHIST_DCHECK(right == left + 1);
    nodes_[range.node].left = left;
    queue.push_back({left, range.begin, mid});
    queue.push_back({right, mid, range.end});
  }

  // Pass 2: assign each leaf a padded slot run and fill the bound planes.
  stride_ = 0;
  for (const LeafRange& leaf : leaves) {
    const uint32_t count = leaf.end - leaf.begin;
    stride_ += (count + kBlock - 1) / kBlock * kBlock;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  lo_.assign(dim_ * stride_, kInf);    // Sentinel: never matches.
  hi_.assign(dim_ * stride_, -kInf);
  ids_.assign(stride_, kPadId);
  uint32_t slot = 0;
  for (const LeafRange& leaf : leaves) {
    const uint32_t count = leaf.end - leaf.begin;
    const uint32_t padded = (count + kBlock - 1) / kBlock * kBlock;
    Node& node = nodes_[leaf.node];
    node.first = slot;
    node.count = padded;
    for (uint32_t i = 0; i < count; ++i) {
      const Entry& e = data[leaf.begin + i];
      for (size_t d = 0; d < dim_; ++d) {
        lo_[d * stride_ + slot + i] = e.box.lo(d);
        hi_[d * stride_ + slot + i] = e.box.hi(d);
      }
      ids_[slot + i] = e.id;
    }
    slot += padded;
  }
  STHIST_DCHECK(slot == stride_);
}

void FlatBoxIndex::Bulk(std::vector<Entry> entries) {
  Clear();
  if (entries.empty()) return;
  dim_ = entries[0].box.dim();
  size_ = entries.size();
  Build(&entries);
}

FlatBoxIndex::ProbeStats FlatBoxIndex::Probe(
    const Box& query, BoxOverlap mode, std::vector<uint64_t>* out) const {
  STHIST_DCHECK(out != nullptr);
  ProbeStats stats;
  if (size_ == 0) return stats;
  STHIST_DCHECK(query.dim() == dim_);
  const double* qlo = query.lo_data();
  const double* qhi = query.hi_data();
  const bool closed = mode == BoxOverlap::kClosed;

  int32_t stack[kMaxStack];
  int top = 0;
  stack[top++] = 0;
  uint32_t hits[kLeafCapacity];
  while (top > 0) {
    const int32_t id = stack[--top];
    ++stats.node_visits;
    // Closed overlap is a superset of open-interior overlap, so it is a
    // valid prune for both modes.
    const double* nlo = node_lo_.data() + static_cast<size_t>(id) * dim_;
    const double* nhi = node_hi_.data() + static_cast<size_t>(id) * dim_;
    bool overlap = true;
    for (size_t d = 0; d < dim_; ++d) {
      if (nhi[d] < qlo[d] || qhi[d] < nlo[d]) {
        overlap = false;
        break;
      }
    }
    if (!overlap) continue;
    const Node& node = nodes_[id];
    if (!node.leaf()) {
      STHIST_DCHECK(top + 2 <= kMaxStack);
      stack[top++] = node.left + 1;
      stack[top++] = node.left;
      continue;
    }
    stats.entry_blocks += node.count / kBlock;
    const size_t n =
        simd::MatchBoxes(lo_.data(), hi_.data(), stride_, dim_, node.first,
                         node.count, qlo, qhi, closed, hits);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t entry_id = ids_[hits[i]];
      // Sentinel slots cannot match a finite query, but an all-infinite
      // query would see them in closed mode; filter explicitly.
      if (entry_id != kPadId) out->push_back(entry_id);
    }
  }
  return stats;
}

}  // namespace sthist
