// Structural-sharing property battery for the copy-on-write bucket tree
// (DESIGN.md §17). The contract under test:
//
//   1. Snapshot() is observationally a deep clone: published estimates are
//      std::bit_cast-identical to Clone()'s across arbitrary refinement
//      histories (drills, merges, child migrations).
//   2. Snapshots are frozen: refining the source never changes a previously
//      taken snapshot's estimates, no matter how many epochs pass.
//   3. Sharing is real and bounded: a refine after a snapshot path-copies at
//      most the buckets the query intersects (the touched spine), and the
//      rest of the tree stays physically shared between the working tree and
//      the snapshot — the O(touched path) publish cost the serving layer
//      depends on.
//
// The bound in (3) is checked against an *independently computed* count: the
// number of buckets whose box intersects the query, recovered from the
// Dump() walk of the bucket tree rather than by asking the COW machinery.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/box.h"
#include "data/generators.h"
#include "histogram/stholes.h"
#include "obs/metrics.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

STHolesConfig Budget(size_t buckets, obs::MetricsRegistry* metrics = nullptr) {
  STHolesConfig config;
  config.max_buckets = buckets;
  config.metrics = metrics;
  return config;
}

struct TrainingRig {
  explicit TrainingRig(size_t tuples_per_cluster = 1200)
      : g(MakeData(tuples_per_cluster)),
        executor(std::make_unique<Executor>(g.data)) {}

  static GeneratedData MakeData(size_t tuples_per_cluster) {
    CrossConfig config;
    config.tuples_per_cluster = tuples_per_cluster;
    config.noise_tuples = tuples_per_cluster / 5;
    return MakeCross(config);
  }

  Workload Queries(size_t n, uint64_t seed,
                   double volume_fraction = 0.01) const {
    WorkloadConfig wc;
    wc.num_queries = n;
    wc.seed = seed;
    wc.volume_fraction = volume_fraction;
    return MakeWorkload(g.domain, wc);
  }

  GeneratedData g;
  std::unique_ptr<Executor> executor;
};

// The bucket boxes in pre-order, read off the STHoles::Dump() walk — an
// oracle for the touched-path bound that shares no code with the COW
// implementation.
std::vector<Box> BucketBoxes(const STHoles& hist) {
  std::vector<Box> boxes;
  for (const STHoles::BucketInfo& bucket : hist.Dump()) {
    boxes.push_back(bucket.box);
  }
  return boxes;
}

size_t IntersectingBuckets(const std::vector<Box>& boxes, const Box& query) {
  size_t n = 0;
  for (const Box& b : boxes) {
    if (b.IntersectionVolume(query) > 0.0) ++n;
  }
  return n;
}

void ExpectBitIdentical(const Histogram& a, const Histogram& b,
                        const Workload& probes) {
  for (const Box& q : probes) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.Estimate(q)),
              std::bit_cast<uint64_t>(b.Estimate(q)));
  }
}

// (1): after every single refine of a history long enough to exercise
// drills, merges under a tight budget, and child migrations, the snapshot's
// estimates equal a deep clone's bit for bit.
TEST(CowTreeTest, SnapshotMatchesCloneAfterEveryRefine) {
  TrainingRig rig;
  obs::MetricsRegistry metrics;
  STHoles hist(rig.g.domain, static_cast<double>(rig.g.data.size()),
               Budget(24, &metrics));  // Tight budget: merges guaranteed.
  // Small queries first to grow depth, then large ones whose drilled holes
  // swallow earlier children — that is what exercises child migration.
  Workload train = rig.Queries(120, 21);
  for (const Box& q : rig.Queries(40, 22, 0.15)) train.push_back(q);
  Workload probes = rig.Queries(64, 99);

  // The previous epoch's snapshot stays alive across the next Refine, so
  // every refine mutates a genuinely shared tree — the COW-vs-clone
  // differential below covers the path-copy machinery, not a trivially
  // exclusive tree.
  std::shared_ptr<const Histogram> prev;
  for (const Box& q : train) {
    hist.Refine(q, *rig.executor);
    std::shared_ptr<const Histogram> snap = hist.Snapshot();
    std::unique_ptr<Histogram> clone = hist.Clone();
    ASSERT_NE(snap, nullptr);
    ASSERT_NE(clone, nullptr);
    EXPECT_EQ(snap->bucket_count(), hist.bucket_count());
    ExpectBitIdentical(*snap, *clone, probes);
    prev = std::move(snap);
  }

  // The history must actually have covered all three mutation kinds, or the
  // differential above proved less than it claims.
  EXPECT_GT(metrics.counter("histogram.stholes.drills").value(), 0u);
  EXPECT_GT(metrics.counter("histogram.stholes.merges").value(), 0u);
  EXPECT_GT(metrics.counter("histogram.stholes.migrated_children").value(),
            0u);
  EXPECT_GT(metrics.counter("histogram.cow.copied_nodes").value(), 0u);
}

// Merge search keys its scores by bucket content, not by address: a tree
// refined while the previous epoch's snapshot is held (so a merge path-copies
// shared ancestors between two searches of one refine) merges exactly like a
// twin refined without snapshots (whose freed buckets' addresses are free to
// be reused by the buckets it allocates next). Gauss-6d grows the depth that
// puts merges below shared ancestors.
TEST(CowTreeTest, SnapshotsDoNotChangeMergeChoices) {
  GaussConfig gauss;
  gauss.cluster_tuples = 4000;
  gauss.noise_tuples = 400;
  const GeneratedData g = MakeGauss(gauss);
  const Executor executor(g.data);
  obs::MetricsRegistry metrics;
  const double tuples = static_cast<double>(g.data.size());
  STHoles shared(g.domain, tuples, Budget(40, &metrics));
  STHoles plain(g.domain, tuples, Budget(40));

  std::shared_ptr<const Histogram> prev;
  for (const Box& q : MakeWorkload(
           g.domain, {60, 0.01, CenterDistribution::kUniform, 7})) {
    shared.Refine(q, executor);
    plain.Refine(q, executor);
    ASSERT_EQ(shared.SerializeBinary(), plain.SerializeBinary())
        << q.ToString();
    prev = shared.Snapshot();
  }
  EXPECT_GT(metrics.counter("histogram.stholes.merges").value(), 0u);
  EXPECT_GT(metrics.counter("histogram.cow.copied_nodes").value(), 0u);
}

// (2): snapshots taken at every epoch stay frozen while the source keeps
// refining — each one still reproduces the estimates recorded the moment it
// was taken, and CheckInvariants still passes on the shared structure.
TEST(CowTreeTest, SnapshotsAreImmutableWhileSourceRefines) {
  TrainingRig rig;
  STHoles hist(rig.g.domain, static_cast<double>(rig.g.data.size()),
               Budget(20));
  Workload train = rig.Queries(120, 5);
  Workload probes = rig.Queries(40, 77);

  std::vector<std::shared_ptr<const Histogram>> epochs;
  std::vector<std::vector<uint64_t>> expected;  // Per-epoch probe bits.
  for (const Box& q : train) {
    hist.Refine(q, *rig.executor);
    std::shared_ptr<const Histogram> snap = hist.Snapshot();
    std::vector<uint64_t> bits;
    bits.reserve(probes.size());
    for (const Box& p : probes) {
      bits.push_back(std::bit_cast<uint64_t>(snap->Estimate(p)));
    }
    epochs.push_back(std::move(snap));
    expected.push_back(std::move(bits));
  }

  hist.CheckInvariants();
  for (size_t e = 0; e < epochs.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(epochs[e]->Estimate(probes[i])),
                expected[e][i]);
    }
  }
}

// Dropping every snapshot hands exclusive ownership back to the working
// tree: nothing is shared afterwards, and refinement stops path-copying.
TEST(CowTreeTest, DroppedSnapshotsReturnExclusiveOwnership) {
  TrainingRig rig;
  STHoles hist(rig.g.domain, static_cast<double>(rig.g.data.size()),
               Budget(32));
  Workload train = rig.Queries(60, 3);
  for (const Box& q : train) hist.Refine(q, *rig.executor);

  {
    std::shared_ptr<const Histogram> snap = hist.Snapshot();
    EXPECT_GT(hist.SharedNodeCount(), 0u);
  }
  EXPECT_EQ(hist.SharedNodeCount(), 0u);

  const size_t copied_before = hist.CowCopiedNodes();
  for (const Box& q : rig.Queries(20, 4)) hist.Refine(q, *rig.executor);
  EXPECT_EQ(hist.CowCopiedNodes(), copied_before);
}

// (3): with a huge budget (no merges), each refine after a snapshot copies
// at most the buckets the query intersects, and everything else stays
// shared. The bound is computed from the Dump() geometry, not the COW
// counters.
TEST(CowTreeTest, PathCopiesAreBoundedByTouchedBuckets) {
  TrainingRig rig;
  STHoles hist(rig.g.domain, static_cast<double>(rig.g.data.size()),
               Budget(100000));  // Effectively unbounded: drills only.
  Workload train = rig.Queries(150, 11);

  // Warm up so the tree has depth before the bounded phase.
  size_t i = 0;
  for (; i < 50; ++i) hist.Refine(train[i], *rig.executor);

  std::vector<std::shared_ptr<const Histogram>> keep_alive;
  for (; i < train.size(); ++i) {
    const Box& q = train[i];
    keep_alive.push_back(hist.Snapshot());  // Everything shared again.
    const std::vector<Box> boxes = BucketBoxes(hist);
    // Dump lists every node including the root; bucket_count() is the
    // hole count (root excluded). The root's box is the domain, so it is
    // counted in `touched` for every query — exactly right, since the root
    // is path-copied on every descent.
    ASSERT_EQ(boxes.size(), hist.bucket_count() + 1);
    const size_t touched = IntersectingBuckets(boxes, q);
    const size_t pre_total = boxes.size();
    const size_t copied_before = hist.CowCopiedNodes();

    hist.Refine(q, *rig.executor);

    const size_t copied = hist.CowCopiedNodes() - copied_before;
    EXPECT_LE(copied, touched)
        << "refine " << i << " copied " << copied << " nodes but the query "
        << "only intersects " << touched << " of " << pre_total;
    // Un-touched buckets stay physically shared with the live snapshot.
    EXPECT_GE(hist.SharedNodeCount() + copied, pre_total - touched);
  }
}

// The histogram.cow.* metrics account for publishes the way DESIGN.md §17
// specifies: shared_nodes after a snapshot is the bucket count minus the
// nodes freshened since the previous snapshot, and back-to-back snapshots
// share the entire tree.
TEST(CowTreeTest, SharingMetricsTrackPublishes) {
  TrainingRig rig;
  obs::MetricsRegistry metrics;
  STHoles hist(rig.g.domain, static_cast<double>(rig.g.data.size()),
               Budget(40, &metrics));
  for (const Box& q : rig.Queries(80, 13)) hist.Refine(q, *rig.executor);

  std::shared_ptr<const Histogram> first = hist.Snapshot();
  EXPECT_EQ(metrics.counter("histogram.cow.snapshots").value(), 1u);

  // No refinement in between: the second snapshot shares every node — all
  // bucket_count() holes plus the root.
  std::shared_ptr<const Histogram> second = hist.Snapshot();
  EXPECT_EQ(metrics.counter("histogram.cow.snapshots").value(), 2u);
  EXPECT_EQ(static_cast<size_t>(
                metrics.gauge("histogram.cow.shared_nodes").value()),
            hist.bucket_count() + 1);

  // One refine, then a third snapshot: the freshened spine is not shared,
  // the rest is. The live snapshots force at least the root to be
  // path-copied, so shared drops below the full node count.
  Workload one = rig.Queries(1, 55);
  hist.Refine(one[0], *rig.executor);
  std::shared_ptr<const Histogram> third = hist.Snapshot();
  const size_t shared = static_cast<size_t>(
      metrics.gauge("histogram.cow.shared_nodes").value());
  EXPECT_LE(shared, hist.bucket_count());  // At least the root freshened.
  EXPECT_GT(shared, 0u);
}

// Serialization is part of the observational contract too: a snapshot's
// binary blob is byte-identical to the working tree's at the moment of the
// snapshot, so persistence can run off the published snapshot without a
// deep copy.
TEST(CowTreeTest, SnapshotSerializesIdenticallyToSource) {
  TrainingRig rig;
  STHoles hist(rig.g.domain, static_cast<double>(rig.g.data.size()),
               Budget(28));
  for (const Box& q : rig.Queries(90, 42)) hist.Refine(q, *rig.executor);

  std::shared_ptr<const Histogram> snap = hist.Snapshot();
  EXPECT_EQ(snap->SerializeBinary(), hist.SerializeBinary());

  // And it stays byte-stable while the source moves on.
  const std::string frozen = snap->SerializeBinary();
  for (const Box& q : rig.Queries(30, 43)) hist.Refine(q, *rig.executor);
  EXPECT_EQ(snap->SerializeBinary(), frozen);
  EXPECT_NE(hist.SerializeBinary(), frozen);  // The source did change.
}

}  // namespace
}  // namespace sthist
