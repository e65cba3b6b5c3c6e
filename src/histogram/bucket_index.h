#ifndef STHIST_HISTOGRAM_BUCKET_INDEX_H_
#define STHIST_HISTOGRAM_BUCKET_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/box.h"
#include "core/check.h"
#include "index/flat_index.h"

namespace sthist {

/// \file
/// Adapter between a bucket-tree histogram (STHoles, ISOMER) and the flat
/// SoA spatial index, plus the indexed replay of their shared estimation
/// recursion. The probe layer is FlatBoxIndex (DESIGN.md §15); when the
/// index is rebuilt, extended or invalidated follows the maintenance table
/// in DESIGN.md §10.
///
/// The bitwise-equivalence contract (DESIGN.md §10) rests on one IEEE-754
/// identity: for the non-negative terms these estimators produce, adding or
/// subtracting an exact 0.0 never changes a double. A bucket whose box does
/// not open-intersect the query contributes exactly 0.0 to every sum in the
/// linear path — Box::IntersectionVolume returns exact 0.0 for disjoint
/// boxes, and EstimateNode returns 0.0 at its top guard — so skipping those
/// buckets, while visiting the survivors in the same nesting and order,
/// reproduces the linear result bit for bit.

/// Relaxed-atomic cell for a bucket's cached region volume.
///
/// With COW snapshot publishing (DESIGN.md §17) a bucket node can belong to
/// several trees at once — the refiner's working tree and any number of
/// published snapshots share untouched subtrees. Each tree builds its own
/// index lazily, and every build writes the node's region volume; the values
/// are bitwise-identical (a shared node is immutable, so the same boxes feed
/// the same expression), but concurrent plain-double stores would still be a
/// data race. The relaxed atomic makes the same-value overlap benign without
/// adding any ordering cost to the probe path.
class RegionCache {
 public:
  RegionCache() = default;
  RegionCache(const RegionCache& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  RegionCache& operator=(const RegionCache& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Reference to one bucket as a child of its parent: the probe result
/// currency. `slot` is the index into `parent->children`.
template <typename BucketT>
struct BucketChildRef {
  BucketT* parent = nullptr;
  uint32_t slot = 0;
};

/// Probe result: all buckets open-intersecting a query, grouped by parent
/// and ordered by child slot within each group — i.e. exactly the
/// sub-sequence of each node's child loop the linear scan would have found
/// intersecting, in the order it would have found them.
template <typename BucketT>
class BucketGroups {
 public:
  /// The intersecting children of `parent`, in ascending slot order.
  std::span<const BucketChildRef<BucketT>> Of(const BucketT* parent) const {
    auto less_parent = [](const BucketChildRef<BucketT>& ref,
                          const BucketT* p) {
      return std::less<const BucketT*>()(ref.parent, p);
    };
    auto first = std::lower_bound(hits_.begin(), hits_.end(), parent,
                                  less_parent);
    auto last = first;
    while (last != hits_.end() && last->parent == parent) ++last;
    if (first == last) return {};
    return {&*first, static_cast<size_t>(last - first)};
  }

  bool empty() const { return hits_.empty(); }
  size_t size() const { return hits_.size(); }

 private:
  template <typename T>
  friend class BucketTreeIndex;

  std::vector<BucketChildRef<BucketT>> hits_;
  // Probe scratch, reused across calls so a steady-state probe through a
  // long-lived BucketGroups (the estimators hold one per thread) never
  // allocates.
  std::vector<uint64_t> scratch_ids_;
};

/// Spatial index over every non-root bucket of one histogram's bucket tree.
///
/// BucketT must expose `Box box`, `double frequency`, a vector of owning
/// child pointers named `children` (unique_ptr for exclusive trees,
/// shared_ptr for COW trees), and a writable `RegionCache cached_region` the
/// index refreshes with the bucket's region volume (box volume minus child
/// box volumes, clamped at 0 — computed by the same loop as the linear
/// RegionVolume, so the cached value is bitwise-identical to a fresh
/// computation).
///
/// Lifecycle: `Rebuild` after structural changes (or lazily before the next
/// probe); `AppendChild` is the incremental fast-path for a drill that only
/// appended a hole; anything that moves or removes buckets invalidates the
/// whole index (see the maintenance table in DESIGN.md §10). Probes are
/// const and safe to run concurrently once built.
template <typename BucketT>
class BucketTreeIndex {
 public:
  /// Rebuilds from scratch over the tree rooted at `root`, refreshing every
  /// bucket's cached region volume. O(n log n) in the bucket count.
  void Rebuild(BucketT* root) {
    refs_.clear();
    std::vector<FlatBoxIndex::Entry> entries;
    std::vector<BucketT*> pending = {root};
    while (!pending.empty()) {
      BucketT* bucket = pending.back();
      pending.pop_back();
      CacheRegion(bucket);
      for (uint32_t slot = 0;
           slot < static_cast<uint32_t>(bucket->children.size()); ++slot) {
        BucketT* child = bucket->children[slot].get();
        entries.push_back({child->box, refs_.size()});
        refs_.push_back({bucket, slot});
        pending.push_back(child);
      }
    }
    tree_.Bulk(std::move(entries));
  }

  /// Registers the child just appended to `parent->children` and refreshes
  /// the two affected region caches. Only valid when the index was built and
  /// the drill moved no other bucket.
  void AppendChild(BucketT* parent) {
    STHIST_DCHECK(!parent->children.empty());
    const uint32_t slot = static_cast<uint32_t>(parent->children.size()) - 1;
    BucketT* child = parent->children[slot].get();
    tree_.Insert(child->box, refs_.size());
    refs_.push_back({parent, slot});
    CacheRegion(parent);
    CacheRegion(child);
  }

  /// Fills `out` with the buckets open-intersecting `query`, grouped for
  /// BucketGroups::Of. Thread-safe against concurrent Probe calls. Returns
  /// the probe's work (flat-index nodes and entry blocks, for metrics).
  /// Allocation-free once `out`'s buffers have reached steady-state
  /// capacity — the hot read path reuses the scratch inside BucketGroups
  /// instead of allocating per query.
  FlatBoxIndex::ProbeStats Probe(const Box& query,
                                 BucketGroups<BucketT>* out) const {
    out->hits_.clear();
    std::vector<uint64_t>& ids = out->scratch_ids_;
    ids.clear();
    const FlatBoxIndex::ProbeStats stats =
        tree_.Probe(query, BoxOverlap::kOpenInterior, &ids);
    out->hits_.reserve(ids.size());
    for (uint64_t id : ids) out->hits_.push_back(refs_[id]);
    std::sort(out->hits_.begin(), out->hits_.end(),
              [](const BucketChildRef<BucketT>& a,
                 const BucketChildRef<BucketT>& b) {
                if (a.parent != b.parent) {
                  return std::less<const BucketT*>()(a.parent, b.parent);
                }
                return a.slot < b.slot;
              });
    return stats;
  }

  size_t size() const { return tree_.size(); }

 private:
  // Same expression, same order as the linear RegionVolume: box volume minus
  // each child's box volume in child order, clamped at zero.
  static void CacheRegion(BucketT* bucket) {
    double volume = bucket->box.Volume();
    for (const auto& child : bucket->children) {
      volume -= child->box.Volume();
    }
    bucket->cached_region.Set(std::max(volume, 0.0));
  }

  FlatBoxIndex tree_;
  // Entry id -> (parent, slot); rebuilt with the tree, appended by
  // AppendChild. Holds raw parent pointers, so any structural change that
  // moves buckets must invalidate the index before the next probe.
  std::vector<BucketChildRef<BucketT>> refs_;
};

/// Indexed replay of the STHoles/ISOMER estimation recursion (paper eq. 1)
/// over only the probed buckets. Bitwise-identical to the linear
/// EstimateNode: the region term uses the cached region volume (identical to
/// a fresh computation by construction), the region-intersection subtracts
/// only the children that actually intersect (the rest subtract exact 0.0 in
/// the linear path), and recursion descends only into intersecting children
/// (the rest return exact 0.0) in the same child order.
template <typename BucketT>
double EstimateIndexed(const BucketT& bucket, const Box& query,
                       const BucketGroups<BucketT>& groups,
                       double min_volume) {
  if (!bucket.box.Intersects(query)) return 0.0;
  const auto kids = groups.Of(&bucket);
  double est = 0.0;
  const double region = bucket.cached_region.Get();
  if (region > min_volume) {
    double overlap = bucket.box.IntersectionVolume(query);
    for (const BucketChildRef<BucketT>& ref : kids) {
      overlap -= bucket.children[ref.slot]->box.IntersectionVolume(query);
    }
    overlap = std::max(overlap, 0.0);
    est += bucket.frequency * (std::min(overlap, region) / region);
  } else if (query.Contains(bucket.box)) {
    est += bucket.frequency;
  }
  for (const BucketChildRef<BucketT>& ref : kids) {
    est += EstimateIndexed(*bucket.children[ref.slot], query, groups,
                           min_volume);
  }
  return est;
}

}  // namespace sthist

#endif  // STHIST_HISTOGRAM_BUCKET_INDEX_H_
