#ifndef STHIST_HISTOGRAM_HISTOGRAM_H_
#define STHIST_HISTOGRAM_HISTOGRAM_H_

#include <cstddef>
#include <memory>
#include <string>

#include "core/box.h"

namespace sthist {

/// Exact-count oracle standing in for the database execution engine.
///
/// In a live system, STHoles inspects the result stream of an executed range
/// query and can therefore count the tuples falling into any sub-rectangle of
/// the query. The library abstracts that capability behind this interface;
/// the canonical implementation wraps a KdTree over the dataset.
class CardinalityOracle {
 public:
  virtual ~CardinalityOracle() = default;

  /// Exact number of tuples inside `box`.
  virtual double Count(const Box& box) const = 0;
};

/// Counters of graceful-degradation events in a self-tuning histogram's
/// feedback loop. Untrusted feedback (an external engine's cardinalities, a
/// client's query boxes) is repaired or skipped instead of aborting; these
/// counters make that degradation observable from the runner and the CLI.
struct RobustnessStats {
  /// Feedback queries dropped entirely (non-finite bounds, dimension
  /// mismatch, zero volume inside the domain).
  size_t rejected_queries = 0;
  /// Feedback queries repaired before use (inverted intervals swapped,
  /// out-of-domain boxes clamped).
  size_t sanitized_queries = 0;
  /// Cardinalities repaired before use (non-finite or negative counts).
  size_t clamped_feedback = 0;
  /// Buckets whose state was fixed up after pathological arithmetic
  /// (non-finite frequencies reset).
  size_t repaired_buckets = 0;

  /// Sum of all counters — nonzero means the histogram degraded somewhere.
  size_t total() const {
    return rejected_queries + sanitized_queries + clamped_feedback +
           repaired_buckets;
  }

  /// Accumulates `other` into this.
  void Add(const RobustnessStats& other) {
    rejected_queries += other.rejected_queries;
    sanitized_queries += other.sanitized_queries;
    clamped_feedback += other.clamped_feedback;
    repaired_buckets += other.repaired_buckets;
  }
};

/// A selectivity-estimation histogram over one relation.
class Histogram {
 public:
  virtual ~Histogram() = default;

  /// Estimated number of tuples matching the range predicate `query`.
  ///
  /// Const-thread-safe: serving readers call it concurrently on one
  /// published snapshot, including while a lazily built cache (the bucket
  /// index) is still cold, so every implementation builds such caches under
  /// a lock and keeps its counters atomic. Concurrent Refine is not allowed
  /// (DESIGN.md §9, §10).
  virtual double Estimate(const Box& query) const = 0;

  /// TEST-ONLY differential hook: the plain linear bucket scan, kept
  /// alongside any index-accelerated Estimate so differential tests can
  /// check the two agree bitwise (tests/index_differential_test.cc,
  /// tests/serve_test.cc). Production callers go through Estimate; nothing
  /// outside the test and bench verification paths should call this. The
  /// default forwards to Estimate; implementations with an index-accelerated
  /// Estimate override it with the original scan.
  virtual double EstimateLinear(const Box& query) const {
    return Estimate(query);
  }

  /// Deep, independent copy of this histogram, the snapshot primitive of the
  /// serving layer (DESIGN.md §11). The contract: the clone's Estimate /
  /// EstimateLinear are bitwise-identical to the source's at the moment of
  /// cloning, the clone shares no mutable state with the source (refining
  /// either never affects the other), and internal acceleration caches start
  /// cold. Returns nullptr for implementations that do not (yet) support
  /// snapshotting — callers that require clones must check.
  virtual std::unique_ptr<Histogram> Clone() const { return nullptr; }

  /// Immutable snapshot of this histogram, the publish primitive of the
  /// serving layer (DESIGN.md §11, §17). Same observable contract as Clone
  /// — the snapshot's Estimate / EstimateLinear are bitwise-identical to the
  /// source's at the moment of snapshotting, and later refinement of the
  /// source never changes what the snapshot answers — but implementations
  /// with a persistent (copy-on-write) bucket organization may share
  /// immutable structure with the source instead of deep-copying, making a
  /// snapshot O(1) while refinement path-copies only what it touches. The
  /// default wraps Clone(), so every cloneable histogram is snapshottable;
  /// returns nullptr exactly when Clone() does.
  virtual std::shared_ptr<const Histogram> Snapshot() const {
    return std::shared_ptr<const Histogram>(Clone());
  }

  /// Versioned binary snapshot of this histogram's state (magic + version +
  /// checksum framing, DESIGN.md §17), the persistence primitive behind warm
  /// restarts and replica hand-off. Returns the empty string for
  /// implementations without a binary format — callers must treat empty as
  /// "unsupported", never as a zero-length snapshot (every real encoding
  /// begins with a magic tag). Reconstruction is per-implementation (e.g.
  /// STHoles::DeserializeBinary), since the caller chooses the concrete type
  /// it restores into.
  virtual std::string SerializeBinary() const { return std::string(); }

  /// Query-feedback refinement hook, invoked after `query` has executed.
  /// `oracle` can count tuples in sub-rectangles of the query (and, for this
  /// simulation substrate, arbitrary rectangles). Static histograms ignore
  /// this.
  virtual void Refine(const Box& query, const CardinalityOracle& oracle) = 0;

  /// Number of buckets currently held.
  virtual size_t bucket_count() const = 0;

  /// Degradation counters accumulated since construction. Static estimators
  /// never degrade and report all-zero.
  virtual RobustnessStats robustness() const { return {}; }
};

}  // namespace sthist

#endif  // STHIST_HISTOGRAM_HISTOGRAM_H_
