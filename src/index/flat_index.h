#ifndef STHIST_INDEX_FLAT_INDEX_H_
#define STHIST_INDEX_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/box.h"

namespace sthist {

/// Overlap predicate a probe matches entries against.
enum class BoxOverlap {
  /// Open interiors overlap: the intersection has positive extent in every
  /// dimension (Box::Intersects). Boxes merely sharing a boundary miss.
  kOpenInterior,
  /// Closed intervals overlap: touching boundaries and degenerate
  /// (zero-extent) boxes count. A superset of kOpenInterior.
  kClosed,
};

/// Spatial index over (box, id) entries answering box-intersection probes:
/// the index MHist keeps its disjoint leaf buckets in, laid out for the
/// estimation hot path (DESIGN.md §15). The bucket-tree histograms index
/// their nested buckets with FlatBucketTree (histogram/bucket_tree.h)
/// instead.
///
/// Layout. Entry bounds live in contiguous per-dimension planes
/// (`lo[d * stride + slot]`), so a probe touches long runs of doubles
/// instead of chasing per-entry `Box` heap vectors, and box-intersection
/// tests vectorize over 4 (AVX2) or 2 (NEON) entries at a time through
/// core/simd.h. The tree over those entries is a balanced binary partition
/// (median split of entry centers along the widest-spread dimension, the
/// counting k-d tree's partitioning generalized from points to boxes)
/// linearized breadth-first into flat node arrays: node bounds in their own
/// contiguous planes, children addressed by index with the right child
/// always at `left + 1`. Leaves own fixed runs of slots padded to the SIMD
/// block width with never-matching sentinel bounds (`lo = +inf, hi = -inf`),
/// so the kernel always runs full blocks.
///
/// Maintenance. `Bulk` is the only way in: it rebuilds from scratch. MHist
/// builds once, at construction.
///
/// Probes are const, allocation-free once `out`'s capacity is warm
/// (fixed-size traversal stack, fixed per-leaf hit buffer), and safe to run
/// concurrently; Bulk and Clear require exclusive access. Probes append the
/// ids of matching entries in unspecified order, without ranking or
/// deduplication.
class FlatBoxIndex {
 public:
  /// One indexed element. All boxes in one index share a dimensionality.
  struct Entry {
    Box box;
    uint64_t id = 0;
  };

  /// Work done by one probe, for the index.flat.* metrics (DESIGN.md §13).
  struct ProbeStats {
    /// Tree nodes touched (including pruned ones).
    uint32_t node_visits = 0;
    /// SIMD-width entry blocks run through the intersection kernel.
    uint32_t entry_blocks = 0;
  };

  FlatBoxIndex() = default;

  /// Discards all entries and nodes.
  void Clear();

  /// Replaces the contents with `entries`. O(n log n).
  void Bulk(std::vector<Entry> entries);

  /// Appends the ids of every entry whose box overlaps `query` under `mode`
  /// to `out` (not cleared first). Order unspecified.
  ProbeStats Probe(const Box& query, BoxOverlap mode,
                   std::vector<uint64_t>* out) const;

  /// Number of entries held.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  // Leaf fan-out before padding. Wide because the vectorized leaf scan makes
  // wide leaves cheap, and fewer nodes mean fewer prune tests.
  static constexpr uint32_t kLeafCapacity = 16;
  // Slots per SIMD block; leaves are padded to a multiple of this.
  static constexpr uint32_t kBlock = 4;
  // Id marking a padded (sentinel) slot; never emitted.
  static constexpr uint64_t kPadId = ~uint64_t{0};
  // Traversal stack bound: the bulk build median-splits exactly in half, so
  // depth <= ceil(log2(n / kLeafCapacity)) + 1 and a DFS stack holds at
  // most depth + 1 nodes. 64 covers any entry count an uint32 slot space
  // can address, with margin.
  static constexpr int kMaxStack = 64;

  struct Node {
    int32_t left = -1;   // Internal: left child id, right child = left + 1.
    uint32_t first = 0;  // Leaf: first slot of its padded run.
    uint32_t count = 0;  // Leaf: padded slot count (multiple of kBlock).

    bool leaf() const { return left < 0; }
  };

  // Builds nodes_/planes from `entries` (consumed; reordered in place).
  void Build(std::vector<Entry>* entries);

  size_t dim_ = 0;
  size_t size_ = 0;
  size_t stride_ = 0;            // Padded slot count per plane.
  std::vector<double> lo_, hi_;  // Entry bound planes, [d * stride_ + slot].
  std::vector<uint64_t> ids_;    // slot -> entry id; kPadId on padding.
  std::vector<Node> nodes_;      // BFS order; nodes_[0] is the root.
  std::vector<double> node_lo_, node_hi_;  // Node bounds, [node * dim_ + d].
};

}  // namespace sthist

#endif  // STHIST_INDEX_FLAT_INDEX_H_
