// Snapshot persistence battery (DESIGN.md §17): binary round-trips are
// bit-exact, a tenant restored from an STHF snapshot replays the rest of its
// feedback stream to the same final estimates as the uninterrupted run, a
// file truncated at *every* byte boundary fails closed with a Status (the
// kill-at-every-byte sweep — crashes during WriteFileAtomic can only leave
// the old or the new file, but a torn read must still never crash a reader),
// Drain followed immediately by SaveSnapshot observes the full accepted
// history (regression for the publish-barrier bug), and the STHF decoder
// rejects every well-framed file a restore would refuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/binfmt.h"
#include "core/box.h"
#include "data/generators.h"
#include "histogram/stholes.h"
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

constexpr char kTenant[] = "serve";

// A one-refiner fleet serving `hist` as kTenant.
std::unique_ptr<ServiceFleet> OneTenant(std::unique_ptr<Histogram> hist,
                                        const CardinalityOracle& oracle,
                                        size_t restored_feedback = 0,
                                        size_t publish_batch = 64) {
  FleetConfig config;
  config.refiners = 1;
  config.queue_capacity = 4096;
  config.publish_batch = publish_batch;
  auto fleet = std::make_unique<ServiceFleet>(config);
  TenantOptions options;
  options.restored_feedback = restored_feedback;
  EXPECT_TRUE(
      fleet->AddTenant(kTenant, std::move(hist), oracle, options).ok());
  return fleet;
}

void SubmitAccepted(ServiceFleet& fleet, const Box& query) {
  StatusOr<FleetFeedbackOutcome> outcome = fleet.SubmitFeedback(kTenant, query);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(*outcome, FleetFeedbackOutcome::kAccepted);
}

// Reads `path` back as an STHF snapshot holding exactly one tenant.
snapshot_io::FleetTenant LoadOnlyTenant(const std::string& path) {
  StatusOr<std::string> bytes = snapshot_io::ReadFile(path);
  EXPECT_TRUE(bytes.ok());
  if (!bytes.ok()) return {};
  StatusOr<snapshot_io::FleetSnapshot> saved =
      snapshot_io::DecodeFleetSnapshot(*bytes);
  EXPECT_TRUE(saved.ok()) << saved.status().ToString();
  if (!saved.ok() || saved->tenants.size() != 1) {
    ADD_FAILURE() << "expected a one-tenant snapshot";
    return {};
  }
  return saved->tenants.front();
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

  std::unique_ptr<ServiceFleet> run_a =
      OneTenant(rig.Trained(30, 60), *rig.executor);
  for (size_t i = 0; i < stream.size(); ++i) {
    SubmitAccepted(*run_a, stream[i]);
    if (i + 1 == cut) {
      ASSERT_TRUE(run_a->Drain().ok());
      ASSERT_TRUE(run_a->SaveSnapshot(path).ok());
    }
  }
  ASSERT_TRUE(run_a->Drain().ok());
  run_a->Stop();

  const snapshot_io::FleetTenant saved = LoadOnlyTenant(path);
  ASSERT_EQ(saved.key, kTenant);
  ASSERT_EQ(saved.applied_feedback, cut);

  StatusOr<std::unique_ptr<STHoles>> restored =
      STHoles::DeserializeBinary(saved.histogram, Budget(30));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::unique_ptr<ServiceFleet> run_b =
      OneTenant(*std::move(restored), *rig.executor,
                static_cast<size_t>(saved.applied_feedback));
  for (size_t i = cut; i < stream.size(); ++i) {
    SubmitAccepted(*run_b, stream[i]);
  }
  ASSERT_TRUE(run_b->Drain().ok());
  run_b->Stop();

  ExpectBitIdentical(*run_a->Snapshot(kTenant), *run_b->Snapshot(kTenant),
                     probes);

  // A save from the restored tenant carries the cumulative watermark, so a
  // second restore would skip the right prefix too.
  const std::string path_b = rig.TempPath("sthist_service_b.snap");
  ASSERT_TRUE(run_b->SaveSnapshot(path_b).ok());
  EXPECT_EQ(LoadOnlyTenant(path_b).applied_feedback, stream.size());
  std::remove(path.c_str());
  std::remove(path_b.c_str());
}

// Kill-at-every-byte: every strict prefix of a valid snapshot file decodes
// to an error Status — the payload-size pin makes torn tails unambiguous —
// and never crashes, for both container layers and the histogram blob.
TEST(SnapshotPersistTest, EveryTruncationFailsClosed) {
  Rig rig;
  std::unique_ptr<ServiceFleet> fleet =
      OneTenant(rig.Trained(20, 60), *rig.executor);
  for (const Box& q : rig.Queries(40, 3)) SubmitAccepted(*fleet, q);
  ASSERT_TRUE(fleet->Drain().ok());
  const std::string path = rig.TempPath("sthist_torn.snap");
  ASSERT_TRUE(fleet->SaveSnapshot(path).ok());
  StatusOr<std::string> whole = snapshot_io::ReadFile(path);
  ASSERT_TRUE(whole.ok());
  std::remove(path.c_str());

  for (size_t len = 0; len < whole->size(); ++len) {
    const std::string_view prefix(whole->data(), len);
    StatusOr<snapshot_io::FleetSnapshot> decoded =
        snapshot_io::DecodeFleetSnapshot(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes accepted";
  }
  StatusOr<snapshot_io::FleetSnapshot> full =
      snapshot_io::DecodeFleetSnapshot(*whole);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->tenants.size(), 1u);
  EXPECT_EQ(full->tenants.front().applied_feedback, 40u);

  // The nested histogram blob fails closed the same way.
  const std::string& blob = full->tenants.front().histogram;
  for (size_t len = 0; len < blob.size(); ++len) {
    StatusOr<std::unique_ptr<STHoles>> decoded = STHoles::DeserializeBinary(
        std::string_view(blob.data(), len), Budget(20));
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
  // Publishes lag submissions by up to a 64-item batch: the racy window.
  std::unique_ptr<ServiceFleet> fleet =
      OneTenant(rig.Trained(24, 40), *rig.executor, 0, 64);
  const std::string path = rig.TempPath("sthist_barrier.snap");

  size_t accepted = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    SubmitAccepted(*fleet, stream[i]);
    ++accepted;
    if ((i + 1) % 30 != 0) continue;
    ASSERT_TRUE(fleet->Drain().ok());
    ASSERT_TRUE(fleet->SaveSnapshot(path).ok());
    const snapshot_io::FleetTenant saved = LoadOnlyTenant(path);
    // The watermark covers every accepted item...
    EXPECT_EQ(saved.applied_feedback, accepted);
    // ...and the histogram is the one the watermark describes: byte-equal
    // to the currently published snapshot.
    EXPECT_EQ(saved.histogram, fleet->Snapshot(kTenant)->SerializeBinary());
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
    EXPECT_EQ(tenant.applied_feedback, 50u);
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

// The decoder rejects what a restore would refuse, even inside a frame with
// a valid checksum: every entry below re-frames a hand-built payload, so
// each decode check is reached, and each rejection names the tenant index.
TEST(SnapshotPersistTest, FleetPayloadCorpusIsRejected) {
  Rig rig;
  const std::string stholes = rig.Trained(10, 20)->SerializeBinary();
  auto tenant = [&](std::string key, std::string estimator) {
    snapshot_io::FleetTenant t;
    t.key = std::move(key);
    t.estimator = std::move(estimator);
    t.applied_feedback = 7;
    t.histogram = stholes;
    return t;
  };
  struct Entry {
    const char* name;
    std::vector<snapshot_io::FleetTenant> tenants;
    const char* diagnostic;
  };
  const std::vector<Entry> corpus = {
      {"empty key", {tenant("", "stholes")}, "tenant 0 has an empty key"},
      {"duplicate key",
       {tenant("tenant_0", "stholes"), tenant("tenant_0", "stholes")},
       "tenant 1 key 'tenant_0'"},
      {"keys out of order",
       {tenant("b", "stholes"), tenant("a", "stholes")},
       "tenant 1 key 'a'"},
      {"estimator label disagrees with the blob",
       {tenant("a", "stholes"), tenant("b", "kde")},
       "tenant 1 ('b') is labelled estimator 'kde'"},
  };
  for (const Entry& entry : corpus) {
    SCOPED_TRACE(entry.name);
    snapshot_io::FleetSnapshot snapshot;
    snapshot.tenants = entry.tenants;
    StatusOr<snapshot_io::FleetSnapshot> decoded =
        snapshot_io::DecodeFleetSnapshot(
            snapshot_io::EncodeFleetSnapshot(snapshot));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find(entry.diagnostic),
              std::string::npos)
        << decoded.status().message();
  }

  // Control: the same builder with sorted unique keys and honest labels
  // decodes, so the rejections above are the entries' faults.
  snapshot_io::FleetSnapshot good;
  good.tenants = {tenant("a", "stholes"), tenant("b", "stholes")};
  StatusOr<snapshot_io::FleetSnapshot> decoded =
      snapshot_io::DecodeFleetSnapshot(snapshot_io::EncodeFleetSnapshot(good));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->tenants.back().applied_feedback, 7u);
}

// STHF version 3 added the per-tenant watermark: a version-2 file is a
// one-time break, rejected with an error naming both versions.
TEST(SnapshotPersistTest, OlderFleetFormatIsRejectedNamingBothVersions) {
  const std::string v2 = binfmt::Frame("STHF", 2, std::string(16, '\0'));
  StatusOr<snapshot_io::FleetSnapshot> decoded =
      snapshot_io::DecodeFleetSnapshot(v2);
  ASSERT_FALSE(decoded.ok());
  const std::string& message = decoded.status().message();
  EXPECT_NE(message.find("version 2"), std::string::npos) << message;
  EXPECT_NE(message.find("version 3"), std::string::npos) << message;
}

}  // namespace
}  // namespace sthist
