// Snapshot persistence battery (DESIGN.md §17): binary round-trips are
// bit-exact, a service restored from a snapshot replays the rest of its
// feedback stream to the same final estimates as the uninterrupted run, a
// file truncated at *every* byte boundary fails closed with a Status (the
// kill-at-every-byte sweep — crashes during WriteFileAtomic can only leave
// the old or the new file, but a torn read must still never crash a reader),
// and Drain followed immediately by SaveSnapshot observes the full accepted
// history (regression for the publish-barrier bug).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/box.h"
#include "data/generators.h"
#include "histogram/stholes.h"
#include "serve/histogram_service.h"
#include "serve/service_fleet.h"
#include "serve/snapshot_io.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

STHolesConfig Budget(size_t buckets) {
  STHolesConfig config;
  config.max_buckets = buckets;
  return config;
}

struct Rig {
  Rig() : g(MakeData()), executor(std::make_unique<Executor>(g.data)) {}

  static GeneratedData MakeData() {
    CrossConfig config;
    config.tuples_per_cluster = 1000;
    config.noise_tuples = 200;
    return MakeCross(config);
  }

  Workload Queries(size_t n, uint64_t seed) const {
    WorkloadConfig wc;
    wc.num_queries = n;
    wc.seed = seed;
    return MakeWorkload(g.domain, wc);
  }

  std::unique_ptr<STHoles> Trained(size_t buckets, size_t queries,
                                   uint64_t seed = 7) const {
    auto hist = std::make_unique<STHoles>(
        g.domain, static_cast<double>(g.data.size()), Budget(buckets));
    for (const Box& q : Queries(queries, seed)) {
      hist->Refine(q, *executor);
    }
    return hist;
  }

  std::string TempPath(const std::string& name) const {
    return testing::TempDir() + name;
  }

  GeneratedData g;
  std::unique_ptr<Executor> executor;
};

void ExpectBitIdentical(const Histogram& a, const Histogram& b,
                        const Workload& probes) {
  for (const Box& q : probes) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.Estimate(q)),
              std::bit_cast<uint64_t>(b.Estimate(q)));
  }
}

// A fresh histogram (the root bucket alone) and a trained one both
// round-trip bit-exactly.
TEST(SnapshotPersistTest, BinaryRoundTripIsBitExact) {
  Rig rig;
  for (size_t queries : {size_t{0}, size_t{120}}) {
    SCOPED_TRACE("trained on " + std::to_string(queries) + " queries");
    std::unique_ptr<STHoles> hist = rig.Trained(40, queries);
    const std::string blob = hist->SerializeBinary();
    ASSERT_FALSE(blob.empty());

    StatusOr<std::unique_ptr<STHoles>> restored =
        STHoles::DeserializeBinary(blob, Budget(40));
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    (*restored)->CheckInvariants();
    EXPECT_EQ((*restored)->bucket_count(), hist->bucket_count());
    EXPECT_EQ((*restored)->TotalFrequency(), hist->TotalFrequency());
    ExpectBitIdentical(**restored, *hist, rig.Queries(200, 31));
    // Save → load → save is byte-stable.
    EXPECT_EQ((*restored)->SerializeBinary(), blob);
  }
}

TEST(SnapshotPersistTest, AtomicWriteRoundTripsThroughDisk) {
  Rig rig;
  std::unique_ptr<STHoles> hist = rig.Trained(25, 80);
  const std::string blob = hist->SerializeBinary();
  const std::string path = rig.TempPath("sthist_blob.snap");

  ASSERT_TRUE(snapshot_io::WriteFileAtomic(path, blob).ok());
  StatusOr<std::string> read_back = snapshot_io::ReadFile(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, blob);
  // Overwrite with different contents: readers see old or new, and after
  // the rename definitely the new.
  const std::string blob2 = rig.Trained(25, 81)->SerializeBinary();
  ASSERT_TRUE(snapshot_io::WriteFileAtomic(path, blob2).ok());
  EXPECT_EQ(*snapshot_io::ReadFile(path), blob2);
  std::remove(path.c_str());

  EXPECT_EQ(snapshot_io::ReadFile(rig.TempPath("does_not_exist.snap"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

// The warm-restart differential: run A streams feedback deterministically
// and saves mid-run; run B restores from the file and streams only the
// remainder. Their final published snapshots must be bit-identical.
TEST(SnapshotPersistTest, RestoredServiceReplaysToIdenticalSnapshot) {
  Rig rig;
  const Workload stream = rig.Queries(300, 17);
  const Workload probes = rig.Queries(120, 71);
  const std::string path = rig.TempPath("sthist_service.snap");
  const size_t cut = 140;  // Where the "crash" snapshot is taken.

  ServiceConfig sc;
  HistogramService run_a(rig.Trained(30, 60), *rig.executor, sc);
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(run_a.SubmitFeedback(stream[i]), FeedbackOutcome::kAccepted);
    if (i + 1 == cut) {
      ASSERT_TRUE(run_a.Drain().ok());
      ASSERT_TRUE(run_a.SaveSnapshot(path).ok());
    }
  }
  ASSERT_TRUE(run_a.Drain().ok());
  run_a.Stop();

  StatusOr<std::string> bytes = snapshot_io::ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  StatusOr<snapshot_io::ServiceSnapshot> saved =
      snapshot_io::DecodeServiceSnapshot(*bytes);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->applied_feedback, cut);

  StatusOr<std::unique_ptr<STHoles>> restored =
      STHoles::DeserializeBinary(saved->histogram, Budget(30));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ServiceConfig sc_b;
  sc_b.restored_feedback = static_cast<size_t>(saved->applied_feedback);
  HistogramService run_b(*std::move(restored), *rig.executor, sc_b);
  for (size_t i = cut; i < stream.size(); ++i) {
    ASSERT_EQ(run_b.SubmitFeedback(stream[i]), FeedbackOutcome::kAccepted);
  }
  ASSERT_TRUE(run_b.Drain().ok());
  run_b.Stop();

  ExpectBitIdentical(*run_a.snapshot(), *run_b.snapshot(), probes);

  // A save from the restored service carries the cumulative watermark, so a
  // second restore would skip the right prefix too.
  const std::string path_b = rig.TempPath("sthist_service_b.snap");
  ASSERT_TRUE(run_b.SaveSnapshot(path_b).ok());
  StatusOr<std::string> bytes_b = snapshot_io::ReadFile(path_b);
  ASSERT_TRUE(bytes_b.ok());
  StatusOr<snapshot_io::ServiceSnapshot> saved_b =
      snapshot_io::DecodeServiceSnapshot(*bytes_b);
  ASSERT_TRUE(saved_b.ok());
  EXPECT_EQ(saved_b->applied_feedback, stream.size());
  std::remove(path.c_str());
  std::remove(path_b.c_str());
}

// Kill-at-every-byte: every strict prefix of a valid snapshot file decodes
// to an error Status — the payload-size pin makes torn tails unambiguous —
// and never crashes, for both container layers and the histogram blob.
TEST(SnapshotPersistTest, EveryTruncationFailsClosed) {
  Rig rig;
  ServiceConfig sc;
  HistogramService service(rig.Trained(20, 60), *rig.executor, sc);
  for (const Box& q : rig.Queries(40, 3)) {
    ASSERT_EQ(service.SubmitFeedback(q), FeedbackOutcome::kAccepted);
  }
  ASSERT_TRUE(service.Drain().ok());
  const std::string path = rig.TempPath("sthist_torn.snap");
  ASSERT_TRUE(service.SaveSnapshot(path).ok());
  StatusOr<std::string> whole = snapshot_io::ReadFile(path);
  ASSERT_TRUE(whole.ok());
  std::remove(path.c_str());

  for (size_t len = 0; len < whole->size(); ++len) {
    const std::string_view prefix(whole->data(), len);
    StatusOr<snapshot_io::ServiceSnapshot> decoded =
        snapshot_io::DecodeServiceSnapshot(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes accepted";
  }
  StatusOr<snapshot_io::ServiceSnapshot> full =
      snapshot_io::DecodeServiceSnapshot(*whole);
  ASSERT_TRUE(full.ok());

  // The nested histogram blob fails closed the same way.
  for (size_t len = 0; len < full->histogram.size(); ++len) {
    StatusOr<std::unique_ptr<STHoles>> decoded = STHoles::DeserializeBinary(
        std::string_view(full->histogram.data(), len), Budget(20));
    EXPECT_FALSE(decoded.ok()) << "blob prefix of " << len << " accepted";
  }
}

// Regression for the §17 publish-barrier bug: Drain followed immediately by
// SaveSnapshot must persist a watermark equal to everything accepted so far
// AND the histogram that watermark describes. Before the fix, the watermark
// could advance ahead of the snapshot pointer, so the saved file paired a
// new watermark with an old epoch's histogram.
TEST(SnapshotPersistTest, DrainThenSaveObservesPublishedHistory) {
  Rig rig;
  const Workload stream = rig.Queries(240, 29);
  ServiceConfig sc;
  sc.publish_batch = 64;  // Publishes lag submissions: the racy window.
  HistogramService service(rig.Trained(24, 40), *rig.executor, sc);
  const std::string path = rig.TempPath("sthist_barrier.snap");

  size_t accepted = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(service.SubmitFeedback(stream[i]), FeedbackOutcome::kAccepted);
    ++accepted;
    if ((i + 1) % 30 != 0) continue;
    ASSERT_TRUE(service.Drain().ok());
    ASSERT_TRUE(service.SaveSnapshot(path).ok());
    StatusOr<std::string> bytes = snapshot_io::ReadFile(path);
    ASSERT_TRUE(bytes.ok());
    StatusOr<snapshot_io::ServiceSnapshot> saved =
        snapshot_io::DecodeServiceSnapshot(*bytes);
    ASSERT_TRUE(saved.ok());
    // The watermark covers every accepted item...
    EXPECT_EQ(saved->applied_feedback, accepted);
    // ...and the histogram is the one the watermark describes: byte-equal
    // to the currently published snapshot.
    EXPECT_EQ(saved->histogram, service.snapshot()->SerializeBinary());
  }
  std::remove(path.c_str());
}

// Fleet hand-off: the STHF snapshot restores every tenant to estimates
// bit-identical to the snapshots the saving fleet served.
TEST(SnapshotPersistTest, FleetSnapshotRestoresEveryTenantBitExactly) {
  Rig rig;
  FleetConfig fc;
  fc.refiners = 2;
  fc.seed = 99;
  ServiceFleet fleet(fc);
  const std::vector<std::string> keys = {"alpha", "bravo", "charlie"};
  for (const std::string& key : keys) {
    ASSERT_TRUE(
        fleet
            .AddTenant(key,
                       std::make_unique<STHoles>(
                           rig.g.domain,
                           static_cast<double>(rig.g.data.size()), Budget(18)),
                       *rig.executor)
            .ok());
  }
  for (size_t t = 0; t < keys.size(); ++t) {
    for (const Box& q : rig.Queries(50, 100 + t)) {
      ASSERT_TRUE(fleet.SubmitFeedback(keys[t], q).ok());
    }
  }
  ASSERT_TRUE(fleet.Drain().ok());

  const std::string path = rig.TempPath("sthist_fleet.snap");
  ASSERT_TRUE(fleet.SaveSnapshot(path).ok());
  StatusOr<std::string> bytes = snapshot_io::ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  StatusOr<snapshot_io::FleetSnapshot> saved =
      snapshot_io::DecodeFleetSnapshot(*bytes);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  std::remove(path.c_str());

  EXPECT_EQ(saved->seed, fc.seed);
  ASSERT_EQ(saved->tenants.size(), keys.size());
  const Workload probes = rig.Queries(60, 555);
  for (const snapshot_io::FleetTenant& tenant : saved->tenants) {
    SCOPED_TRACE("tenant " + tenant.key);
    EXPECT_EQ(tenant.estimator, "stholes");
    std::shared_ptr<const Histogram> live = fleet.Snapshot(tenant.key);
    ASSERT_NE(live, nullptr);
    StatusOr<std::unique_ptr<STHoles>> restored =
        STHoles::DeserializeBinary(tenant.histogram, Budget(18));
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectBitIdentical(**restored, *live, probes);
  }

  // Keys arrive sorted, so two saves of the same fleet are byte-identical.
  std::vector<std::string> saved_keys;
  for (const snapshot_io::FleetTenant& tenant : saved->tenants) {
    saved_keys.push_back(tenant.key);
  }
  EXPECT_TRUE(std::is_sorted(saved_keys.begin(), saved_keys.end()));
}

}  // namespace
}  // namespace sthist
