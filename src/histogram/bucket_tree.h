#ifndef STHIST_HISTOGRAM_BUCKET_TREE_H_
#define STHIST_HISTOGRAM_BUCKET_TREE_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/box.h"
#include "core/check.h"
#include "core/simd.h"
#include "histogram/histogram.h"
#include "histogram/robustness.h"
#include "obs/metrics.h"

namespace sthist {

/// \file
/// The bucket-tree core shared by STHoles and ISOMER (DESIGN.md §10): region
/// geometry, the paper's eq. 1 estimation recursion (linear and indexed),
/// candidate shrinking, the hole-carving step of a drill, the structural
/// invariant check, and the lazily built bucket index with its read path.
/// Everything here is templated on the estimator's bucket type and does
/// exactly the same thing for both; what differs — copy-on-write and merges
/// in STHoles, constraints and scaling in ISOMER — stays in the estimator.
///
/// BucketT must expose `Box box`, `double frequency` and a vector of owning
/// child pointers named `children` (unique_ptr for exclusive trees,
/// shared_ptr for COW trees). Nothing here writes to a bucket on the read
/// path, so a node shared with a published snapshot is never written.
///
/// The bitwise-equivalence contract (DESIGN.md §10) rests on one IEEE-754
/// identity: for the non-negative terms these estimators produce, adding or
/// subtracting an exact 0.0 never changes a double. A bucket whose box does
/// not open-intersect the query contributes exactly 0.0 to every sum in the
/// linear path — Box::IntersectionVolume returns exact 0.0 for disjoint
/// boxes, and EstimateNode returns 0.0 at its top guard — so skipping those
/// buckets, while visiting the survivors in the same nesting and order,
/// reproduces the linear result bit for bit.

/// Volumes at or below this fraction of the root volume count as zero: a
/// candidate hole that small is not drilled, and a region that small is
/// estimated as all-or-nothing.
inline constexpr double kMinVolumeFraction = 1e-12;

inline double MinRegionVolume(const Box& domain) {
  return kMinVolumeFraction * domain.Volume();
}

/// Coordinate tolerance for box-equality decisions during drilling,
/// relative to the domain scale.
inline double DrillTolerance(const Box& domain) {
  double max_extent = 0.0;
  for (size_t d = 0; d < domain.dim(); ++d) {
    max_extent = std::max(max_extent, domain.Extent(d));
  }
  return 1e-9 * (1.0 + max_extent);
}

// ---------------------------------------------------------------------------
// Geometry and the linear estimation recursion (paper eq. 1)
// ---------------------------------------------------------------------------

/// Volume of the bucket's region: its box minus its children's boxes, in
/// child order, clamped at zero.
template <typename BucketT>
double RegionVolume(const BucketT& b) {
  double v = b.box.Volume();
  for (const auto& child : b.children) v -= child->box.Volume();
  return std::max(v, 0.0);
}

/// Volume of `query` ∩ region(b).
template <typename BucketT>
double RegionIntersectionVolume(const BucketT& b, const Box& query) {
  double v = b.box.IntersectionVolume(query);
  for (const auto& child : b.children) {
    v -= child->box.IntersectionVolume(query);
  }
  return std::max(v, 0.0);
}

/// Paper eq. 1 over the subtree rooted at `b`: uniformity within each
/// region, summed over the whole subtree in child order. The reference path
/// the indexed estimate must reproduce bit for bit.
template <typename BucketT>
double EstimateNode(const BucketT& b, const Box& query, double min_volume) {
  if (!b.box.Intersects(query)) return 0.0;
  double est = 0.0;
  double region = RegionVolume(b);
  if (region > min_volume) {
    double overlap = std::min(RegionIntersectionVolume(b, query), region);
    est += b.frequency * (overlap / region);
  } else if (query.Contains(b.box)) {
    // Degenerate region fully swallowed by the query: all its mass matches.
    est += b.frequency;
  }
  for (const auto& child : b.children) {
    est += EstimateNode(*child, query, min_volume);
  }
  return est;
}

/// Sum of all bucket frequencies (total tuple mass tracked).
template <typename BucketT>
double TotalFrequency(const BucketT& root) {
  double total = 0.0;
  std::vector<const BucketT*> stack = {&root};
  while (!stack.empty()) {
    const BucketT* b = stack.back();
    stack.pop_back();
    total += b->frequency;
    for (const auto& child : b->children) stack.push_back(child.get());
  }
  return total;
}

// ---------------------------------------------------------------------------
// Drilling (paper §2, STHoles §4.2)
// ---------------------------------------------------------------------------

/// Shrinks candidate = query ∩ box(b) until no child of b partially
/// intersects it. Returns the shrunken candidate, or a zero-volume box when
/// nothing is left to drill into b.
template <typename BucketT>
Box ShrinkCandidate(const BucketT& b, const Box& query) {
  Box c = b.box.Intersection(query);
  const size_t dim = c.dim();

  while (true) {
    // A child that swallows the whole candidate means the queried region
    // belongs to that hole, not to b: nothing to drill here.
    bool has_participant = false;
    for (const auto& child : b.children) {
      if (!child->box.Intersects(c)) continue;
      if (child->box.Contains(c)) {
        return Box::Cube(dim, c.lo(0), c.lo(0));  // Degenerate: volume 0.
      }
      if (!c.Contains(child->box)) {
        has_participant = true;
        break;
      }
    }
    if (!has_participant) return c;

    // Exclude some participant along the single dimension that preserves the
    // most candidate volume (the STHoles greedy shrink). Re-scan all
    // participants for the globally best cut.
    double best_volume = -1.0;
    size_t best_dim = 0;
    bool best_cut_low = false;  // true: raise c.lo, false: lower c.hi.
    double best_value = 0.0;
    for (const auto& child : b.children) {
      if (!child->box.Intersects(c) || c.Contains(child->box) ||
          child->box.Contains(c)) {
        continue;
      }
      for (size_t d = 0; d < dim; ++d) {
        // Raise the low edge to the participant's high edge.
        if (child->box.hi(d) > c.lo(d) && child->box.hi(d) < c.hi(d)) {
          double v = c.Volume() / c.Extent(d) * (c.hi(d) - child->box.hi(d));
          if (v > best_volume) {
            best_volume = v;
            best_dim = d;
            best_cut_low = true;
            best_value = child->box.hi(d);
          }
        }
        // Lower the high edge to the participant's low edge.
        if (child->box.lo(d) < c.hi(d) && child->box.lo(d) > c.lo(d)) {
          double v = c.Volume() / c.Extent(d) * (child->box.lo(d) - c.lo(d));
          if (v > best_volume) {
            best_volume = v;
            best_dim = d;
            best_cut_low = false;
            best_value = child->box.lo(d);
          }
        }
      }
    }
    if (best_volume < 0.0) {
      // No admissible cut (participants cover the candidate's extent in every
      // cuttable dimension). Give up on this bucket.
      return Box::Cube(dim, c.lo(0), c.lo(0));
    }
    if (best_cut_low) {
      c.set_lo(best_dim, best_value);
    } else {
      c.set_hi(best_dim, best_value);
    }
  }
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

/// Aborts unless b's children nest inside it with pairwise disjoint
/// interiors and b's frequency is non-negative.
template <typename BucketT>
void CheckNode(const BucketT& b) {
  STHIST_CHECK(b.frequency >= 0.0);
  for (size_t i = 0; i < b.children.size(); ++i) {
    STHIST_CHECK_MSG(b.box.Contains(b.children[i]->box),
                     "child %s escapes parent %s",
                     b.children[i]->box.ToString().c_str(),
                     b.box.ToString().c_str());
    for (size_t j = i + 1; j < b.children.size(); ++j) {
      STHIST_CHECK_MSG(!b.children[i]->box.Intersects(b.children[j]->box),
                       "siblings %s and %s overlap",
                       b.children[i]->box.ToString().c_str(),
                       b.children[j]->box.ToString().c_str());
    }
  }
}

/// CheckNode over every bucket of the tree, which must hold exactly
/// `bucket_count` buckets (root included).
template <typename BucketT>
void CheckBucketTree(const BucketT& root, size_t bucket_count) {
  size_t counted = 0;
  std::vector<const BucketT*> stack = {&root};
  while (!stack.empty()) {
    const BucketT* b = stack.back();
    stack.pop_back();
    ++counted;
    CheckNode(*b);
    for (const auto& child : b->children) stack.push_back(child.get());
  }
  STHIST_CHECK(counted == bucket_count);
}

// ---------------------------------------------------------------------------
// Flat layout of the bucket tree (the bucket index)
// ---------------------------------------------------------------------------

/// The bucket tree laid out flat for the read path (DESIGN.md §10, §15).
/// Buckets are numbered breadth-first from the root (id 0), so each node's
/// children hold consecutive ids in slot order and their bounds form one
/// contiguous run of structure-of-arrays planes (`lo[d * n + id]`), the
/// shape simd::MatchBoxes scans. Per id it also keeps the region volume, the
/// first child's id, the child count and a pointer to the bucket node.
///
/// Frequencies stay in the nodes and are read through that pointer: STHoles's
/// exact-frequency correction and ISOMER's scaling change them without a
/// structural change, so a copied frequency would go stale.
///
/// Lifecycle: built from scratch by `Rebuild`; any structural change to the
/// tree makes it stale, and it is rebuilt before the next walk (the
/// maintenance policy in DESIGN.md §10). Walks are const and safe to run
/// concurrently once built.
template <typename BucketT>
class FlatBucketTree {
 public:
  /// Work done by one walk, for the index.* metrics (DESIGN.md §13).
  struct WalkStats {
    /// Non-empty child runs scanned.
    uint32_t runs = 0;
    /// 4-slot blocks those runs span, the AVX2 kernel's width.
    uint32_t blocks = 0;
  };

  /// Rebuilds from scratch over the tree rooted at `root`. O(n) in the
  /// bucket count. Region volumes come from RegionVolume, so they are the
  /// linear path's values by construction.
  void Rebuild(const BucketT& root) {
    nodes_.clear();
    nodes_.push_back({&root, RegionVolume(root), 0, 0});
    for (size_t id = 0; id < nodes_.size(); ++id) {
      const BucketT* bucket = nodes_[id].bucket;
      nodes_[id].first = static_cast<uint32_t>(nodes_.size());
      nodes_[id].count = static_cast<uint32_t>(bucket->children.size());
      for (const auto& child : bucket->children) {
        nodes_.push_back({child.get(), RegionVolume(*child), 0, 0});
      }
    }
    n_ = nodes_.size();
    dim_ = root.box.dim();
    lo_.resize(dim_ * n_);
    hi_.resize(dim_ * n_);
    for (size_t id = 0; id < n_; ++id) {
      for (size_t d = 0; d < dim_; ++d) {
        lo_[d * n_ + id] = nodes_[id].bucket->box.lo(d);
        hi_[d * n_ + id] = nodes_[id].bucket->box.hi(d);
      }
    }
  }

  /// Buckets held, root included: the hit buffer a walk needs.
  size_t size() const { return n_; }

  /// RegionVolume of bucket `id` as of the last Rebuild; the root is id 0.
  double region(uint32_t id) const { return nodes_[id].region; }

  /// Id of the first child of bucket `id`; child slot s has id first + s.
  uint32_t first_child(uint32_t id) const { return nodes_[id].first; }

  /// Writes to `out` the ids of the children of bucket `id` whose boxes
  /// open-intersect the query box [qlo, qhi] (Box::Intersects), in slot
  /// order, and returns how many. `out` must have room for the child count.
  uint32_t MatchChildren(uint32_t id, const double* qlo, const double* qhi,
                         uint32_t* out, WalkStats* stats) const {
    const Node& node = nodes_[id];
    if (node.count == 0) return 0;
    ++stats->runs;
    stats->blocks += (node.count + 3) / 4;
    return static_cast<uint32_t>(
        simd::MatchBoxes(lo_.data(), hi_.data(), n_, dim_, node.first,
                         node.count, qlo, qhi, /*closed=*/false, out));
  }

  /// Paper eq. 1 over the whole tree, bitwise-identical to EstimateNode on
  /// the root (DESIGN.md §10). `hits` must have room for size() ids.
  double Estimate(const Box& query, double min_volume, uint32_t* hits,
                  WalkStats* stats) const {
    if (!nodes_[0].bucket->box.Intersects(query)) return 0.0;
    return EstimateFrom(0, query.lo_data(), query.hi_data(), min_volume, hits,
                        stats);
  }

 private:
  struct Node {
    const BucketT* bucket = nullptr;
    double region = 0.0;
    uint32_t first = 0;
    uint32_t count = 0;
  };

  // Eq. 1 over the subtree of bucket `id`, which open-intersects the query
  // box [qlo, qhi]. EstimateNode's arithmetic in EstimateNode's order: the
  // children that miss would subtract, and add, exact 0.0 there, so skipping
  // them changes no bit. This node's hits go to `hits`; each child's go
  // after them.
  double EstimateFrom(uint32_t id, const double* qlo, const double* qhi,
                      double min_volume, uint32_t* hits,
                      WalkStats* stats) const {
    const uint32_t k = MatchChildren(id, qlo, qhi, hits, stats);
    const Node& node = nodes_[id];
    double est = 0.0;
    if (node.region > min_volume) {
      double overlap = IntersectionVolume(id, qlo, qhi);
      for (uint32_t i = 0; i < k; ++i) {
        overlap -= IntersectionVolume(hits[i], qlo, qhi);
      }
      overlap = std::max(overlap, 0.0);
      est += node.bucket->frequency *
             (std::min(overlap, node.region) / node.region);
    } else if (Contained(id, qlo, qhi)) {
      est += node.bucket->frequency;
    }
    for (uint32_t i = 0; i < k; ++i) {
      est += EstimateFrom(hits[i], qlo, qhi, min_volume, hits + k, stats);
    }
    return est;
  }

  // Box::IntersectionVolume of bucket `id` with the query, from the planes,
  // with the same operands in the same order.
  double IntersectionVolume(uint32_t id, const double* qlo,
                            const double* qhi) const {
    double v = 1.0;
    for (size_t d = 0; d < dim_; ++d) {
      const double lo = std::max(lo_[d * n_ + id], qlo[d]);
      const double hi = std::min(hi_[d * n_ + id], qhi[d]);
      if (hi <= lo) return 0.0;
      v *= hi - lo;
    }
    return v;
  }

  // Box::Contains of the query over bucket `id`, from the planes.
  bool Contained(uint32_t id, const double* qlo, const double* qhi) const {
    for (size_t d = 0; d < dim_; ++d) {
      if (lo_[d * n_ + id] < qlo[d] || hi_[d * n_ + id] > qhi[d]) return false;
    }
    return true;
  }

  size_t dim_ = 0;
  size_t n_ = 0;
  // Bucket bound planes, [d * n_ + id]. Nodes hold raw bucket pointers, so
  // any structural change must invalidate the layout before the next walk.
  std::vector<double> lo_, hi_;
  std::vector<Node> nodes_;
};

/// The read path of one bucket tree: its FlatBucketTree, built lazily, plus
/// the estimate-path rejection counter and the index.bucket_tree.* /
/// index.flat.* metric handles (DESIGN.md §13). Estimate may run
/// concurrently (snapshot readers); every structural change goes through
/// InvalidateIndex under the owner's exclusive-Refine contract.
template <typename BucketT>
class LazyBucketIndex {
 public:
  /// Resolves the metric handles once from `registry`.
  explicit LazyBucketIndex(obs::MetricsRegistry* registry)
      : builds_(registry->counter("index.bucket_tree.builds")),
        invalidations_(registry->counter("index.bucket_tree.invalidations")),
        probes_(registry->counter("index.bucket_tree.probes")),
        node_visits_(registry->counter("index.bucket_tree.node_visits")),
        flat_probes_(registry->counter("index.flat.probes")),
        flat_entry_blocks_(registry->counter("index.flat.entry_blocks")) {
    // The dispatched kernel level (0 scalar, 1 AVX2, 2 NEON).
    registry->gauge("index.flat.simd_level")
        .Set(static_cast<double>(simd::ActiveLevel()));
  }

  /// Paper eq. 1 for `query` over the tree rooted at `root`. Malformed
  /// queries estimate to 0 and count as rejected. A cold index serves
  /// linearly until estimates repeat on the same structure, then builds;
  /// a reader that finds another thread building serves linearly too
  /// rather than queue behind the build. Both paths return
  /// bitwise-identical values, so the policy is observable only as
  /// wall-clock time.
  double Estimate(const BucketT& root, const Box& query) {
    if (!IsEstimableQuery(root.box, query)) {
      CountRejected();
      return 0.0;
    }
    if (!ready_.load(std::memory_order_acquire)) {
      const uint32_t repeats =
          estimates_since_change_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (repeats < kIndexBuildAfter) {
        return EstimateNode(root, query, MinRegionVolume(root.box));
      }
      std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
      if (!lock.owns_lock()) {
        return EstimateNode(root, query, MinRegionVolume(root.box));
      }
      BuildLocked(root);
    }
    // Thread-local hit buffer: once it has grown to the largest tree this
    // thread reads, the hottest read path in the system stops allocating
    // (asserted by tests/flat_index_test.cc via an operator-new hook).
    static thread_local std::vector<uint32_t> hits;
    if (hits.size() < index_.size()) hits.resize(index_.size());
    typename FlatBucketTree<BucketT>::WalkStats walk;
    const double est =
        index_.Estimate(query, MinRegionVolume(root.box), hits.data(), &walk);
    probes_.Inc();
    node_visits_.Inc(walk.runs);
    flat_probes_.Inc();
    flat_entry_blocks_.Inc(walk.blocks);
    return est;
  }

  /// The full-tree linear scan: the reference path for differential tests.
  double EstimateLinear(const BucketT& root, const Box& query) {
    if (!IsEstimableQuery(root.box, query)) {
      CountRejected();
      return 0.0;
    }
    return EstimateNode(root, query, MinRegionVolume(root.box));
  }

  /// Builds the index over `root` unless it is current (thread-safe,
  /// idempotent) and returns it.
  const FlatBucketTree<BucketT>& EnsureIndex(const BucketT& root) {
    std::lock_guard<std::mutex> lock(mutex_);
    BuildLocked(root);
    return index_;
  }

  /// Marks the index stale after a structural change: a drill, a merge or
  /// a copy-on-write node copy.
  void InvalidateIndex() {
    if (ready_.load(std::memory_order_relaxed)) invalidations_.Inc();
    ready_.store(false, std::memory_order_relaxed);
    estimates_since_change_.store(0, std::memory_order_relaxed);
  }

  /// Estimate-path rejections since construction, and one more of them.
  size_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
  void CountRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }

 private:
  // Estimates that must repeat on an unchanged bucket tree before the lazy
  // build triggers, so a lone estimate inside an Estimate/Refine interleave
  // (learn-during-sim) doesn't pay an O(n log n) rebuild per query.
  static constexpr uint32_t kIndexBuildAfter = 2;

  // Builds the index unless it is current. Requires `mutex_`.
  void BuildLocked(const BucketT& root) {
    if (!ready_.load(std::memory_order_relaxed)) {
      index_.Rebuild(root);
      builds_.Inc();
      ready_.store(true, std::memory_order_release);
    }
  }

  // Serializes builds; walks run lock-free once `ready_` is observed true
  // (acquire) after the builder's release store.
  std::mutex mutex_;
  FlatBucketTree<BucketT> index_;
  std::atomic<bool> ready_{false};
  // Estimates served since the last structural change (kIndexBuildAfter).
  std::atomic<uint32_t> estimates_since_change_{0};
  // Atomic because Estimate runs concurrently; the owner's Refine-path
  // counters stay plain (Refine is exclusive).
  std::atomic<size_t> rejected_{0};
  obs::Counter builds_;
  obs::Counter invalidations_;
  obs::Counter probes_;
  obs::Counter node_visits_;
  obs::Counter flat_probes_;
  obs::Counter flat_entry_blocks_;
};

/// The hole-carving step of a drill: makes `hole` (a fresh, empty node) with
/// box `candidate` the last child of `b`, moves b's children contained in
/// the candidate into it, seeds its frequency with the candidate's count
/// minus the moved children's counts, debits b by the same amount, and
/// invalidates `index`. Moving child *handles* never mutates the children
/// themselves, so a migrated subtree may stay shared with COW snapshots.
/// Returns the number of migrated children.
template <typename BucketT, typename Handle>
size_t CarveHole(BucketT* b, Handle hole, const Box& candidate,
                 const CardinalityOracle& oracle, RobustnessStats* stats,
                 LazyBucketIndex<BucketT>* index) {
  hole->box = candidate;
  double moved_mass = 0.0;
  std::vector<Handle> kept;
  kept.reserve(b->children.size());
  for (auto& child : b->children) {
    if (candidate.Contains(child->box)) {
      moved_mass += oracle.Count(child->box);
      hole->children.push_back(std::move(child));
    } else {
      kept.push_back(std::move(child));
    }
  }
  b->children = std::move(kept);

  hole->frequency = std::max(oracle.Count(candidate) - moved_mass, 0.0);
  if (!std::isfinite(hole->frequency)) {
    ++stats->repaired_buckets;
    hole->frequency = 0.0;
  }
  b->frequency = std::max(b->frequency - hole->frequency, 0.0);
  const size_t migrated = hole->children.size();
  b->children.push_back(std::move(hole));
  index->InvalidateIndex();
  return migrated;
}

}  // namespace sthist

#endif  // STHIST_HISTOGRAM_BUCKET_TREE_H_
