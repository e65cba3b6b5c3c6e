// KDE estimator battery (DESIGN.md §18): the shared Reservoir<T> primitive
// is deterministic and bounded; a trained KdeHistogram's accuracy improves
// with feedback and beats the trivial baseline; online bandwidth adaptation
// beats the fixed Scott's-rule baseline on a drifting stream; the STHK
// snapshot fails closed on corruption; the estimator registry constructs
// every family by name and dispatches restores on the blob magic; and a
// KDE tenant's snapshot round-trips through the STHF container bit-exactly.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/box.h"
#include "core/reservoir.h"
#include "core/status.h"
#include "data/generators.h"
#include "histogram/kde.h"
#include "histogram/registry.h"
#include "histogram/stholes.h"
#include "histogram/trivial.h"
#include "serve/service_fleet.h"
#include "serve/snapshot_io.h"
#include "workload/drift.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// ---------------------------------------------------------------------------
// Reservoir<T>

TEST(ReservoirTest, BelowCapacityKeepsEveryItemInOrder) {
  Reservoir<int> r(8, /*seed=*/1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r.Offer(i), static_cast<size_t>(i));
  }
  EXPECT_EQ(r.size(), 8u);
  EXPECT_EQ(r.stream_length(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(r.items()[i], i);
}

TEST(ReservoirTest, SameSeedSameStreamSameSample) {
  Reservoir<int> a(16, /*seed=*/42);
  Reservoir<int> b(16, /*seed=*/42);
  Reservoir<int> c(16, /*seed=*/43);
  bool c_diverged = false;
  for (int i = 0; i < 5000; ++i) {
    const size_t slot_a = a.Offer(i);
    EXPECT_EQ(slot_a, b.Offer(i));
    if (c.Offer(i) != slot_a) c_diverged = true;
  }
  EXPECT_EQ(a.items(), b.items());
  EXPECT_TRUE(c_diverged) << "different seeds must select different slots";
}

TEST(ReservoirTest, AgeHalveBoundsTheVirtualStream) {
  Reservoir<int> r(32, /*seed=*/7);
  for (int i = 0; i < 1000; ++i) r.Offer(i);
  EXPECT_EQ(r.stream_length(), 1000u);
  r.AgeHalve();
  EXPECT_EQ(r.stream_length(), 500u);
  // Halving can never drop the virtual stream below the held sample: the
  // acceptance probability capacity/stream stays <= 1.
  for (int i = 0; i < 6; ++i) r.AgeHalve();
  EXPECT_EQ(r.stream_length(), r.size());
  EXPECT_EQ(r.size(), 32u);
}

TEST(ReservoirTest, RestoreTruncatesToCapacityAndFloorsTheStream) {
  Reservoir<int> r(4, /*seed=*/3);
  r.Restore({1, 2, 3, 4, 5, 6}, /*stream_length=*/2);
  EXPECT_EQ(r.size(), 4u);  // Truncated to capacity.
  EXPECT_EQ(r.stream_length(), 4u) << "stream floors at the held sample";
}

// ---------------------------------------------------------------------------
// KdeHistogram accuracy

struct KdeRig {
  KdeRig() {
    CrossConfig config;
    config.tuples_per_cluster = 1500;
    config.noise_tuples = 300;
    config.seed = 11;
    g = MakeCross(config);
    executor = std::make_unique<Executor>(g.data);
  }

  Workload Queries(size_t n, uint64_t seed, double volume = 0.01) const {
    WorkloadConfig wc;
    wc.num_queries = n;
    wc.volume_fraction = volume;
    wc.seed = seed;
    return MakeWorkload(g.domain, wc);
  }

  double Mae(const Histogram& h, const Workload& probes) const {
    double sum = 0.0;
    for (const Box& q : probes) {
      sum += std::abs(h.Estimate(q) - executor->Count(q));
    }
    return sum / static_cast<double>(probes.size());
  }

  GeneratedData g{Dataset(1), Box(), {}};
  std::unique_ptr<Executor> executor;
};

// On a stationary workload the estimator learns: error over a held-out
// probe set shrinks as feedback accumulates, and the trained estimator
// beats the trivial uniform baseline (NAE < 1).
TEST(KdeTest, ErrorShrinksOnStationaryWorkload) {
  KdeRig rig;
  KdeConfig config;
  config.sample_capacity = 512;
  KdeHistogram h(rig.g.domain, static_cast<double>(rig.g.data.size()), config);

  const Workload probes = rig.Queries(100, 999);
  const Workload train = rig.Queries(600, 5);

  const double untrained_mae = rig.Mae(h, probes);
  for (size_t i = 0; i < 50; ++i) h.Refine(train[i], *rig.executor);
  const double early_mae = rig.Mae(h, probes);
  for (size_t i = 50; i < train.size(); ++i) h.Refine(train[i], *rig.executor);
  const double late_mae = rig.Mae(h, probes);

  EXPECT_LT(early_mae, untrained_mae);
  EXPECT_LT(late_mae, early_mae);

  TrivialHistogram trivial(rig.g.domain,
                           static_cast<double>(rig.g.data.size()));
  const double trivial_mae = rig.Mae(trivial, probes);
  ASSERT_GT(trivial_mae, 0.0);
  EXPECT_LT(late_mae / trivial_mae, 1.0)
      << "trained KDE must beat the uniform baseline";
}

// The committed adaptive-vs-fixed drift assertion (ISSUE 10 acceptance):
// on the cross-move drift stream, online bandwidth adaptation ends the run
// with a lower final-phase NAE than the fixed Scott's-rule baseline.
TEST(KdeTest, AdaptiveBandwidthBeatsFixedUnderCrossMoveDrift) {
  DriftConfig dc;
  dc.scenario = DriftScenario::kMovingCross;
  dc.phases = 4;
  dc.seed = 17;
  dc.dim = 2;
  dc.tuples = 12000;
  dc.move_span = 0.6;
  WorkloadConfig wc;
  wc.num_queries = 400;
  wc.volume_fraction = 0.01;
  StatusOr<DriftSchedule> schedule = MakeDriftSchedule(dc, wc);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();

  const double total =
      static_cast<double>(schedule->phase(0).data.data.size());
  KdeConfig adaptive_config;
  adaptive_config.sample_capacity = 512;
  KdeConfig fixed_config = adaptive_config;
  fixed_config.adapt_bandwidth = false;
  KdeHistogram adaptive(schedule->domain(), total, adaptive_config);
  KdeHistogram fixed(schedule->domain(), total, fixed_config);

  PhasedOracle oracle(*schedule);
  for (size_t p = 0; p < schedule->phase_count(); ++p) {
    oracle.SetPhase(p);
    for (const Box& q : schedule->phase(p).queries) {
      adaptive.Refine(q, oracle);
      fixed.Refine(q, oracle);
    }
  }

  // Final-phase measurement with learning frozen, against the final phase's
  // ground truth, normalized by the trivial baseline (paper eq. 10).
  const size_t last = schedule->phase_count() - 1;
  oracle.SetPhase(last);
  const Workload& probes = schedule->phase(last).queries;
  TrivialHistogram trivial(schedule->domain(), total);
  double adaptive_mae = 0.0, fixed_mae = 0.0, trivial_mae = 0.0;
  for (const Box& q : probes) {
    const double actual = oracle.Count(q);
    adaptive_mae += std::abs(adaptive.Estimate(q) - actual);
    fixed_mae += std::abs(fixed.Estimate(q) - actual);
    trivial_mae += std::abs(trivial.Estimate(q) - actual);
  }
  ASSERT_GT(trivial_mae, 0.0);
  const double adaptive_nae = adaptive_mae / trivial_mae;
  const double fixed_nae = fixed_mae / trivial_mae;
  EXPECT_LT(adaptive_nae, fixed_nae)
      << "adaptation must beat the fixed-bandwidth baseline after drift";
  EXPECT_LT(adaptive_nae, 1.0) << "and the uniform baseline outright";
}

// Refinement is deterministic: two estimators fed the identical stream are
// bitwise-identical, including their serialized state.
TEST(KdeTest, RefinementIsDeterministic) {
  KdeRig rig;
  KdeConfig config;
  config.sample_capacity = 128;
  KdeHistogram a(rig.g.domain, static_cast<double>(rig.g.data.size()), config);
  KdeHistogram b(rig.g.domain, static_cast<double>(rig.g.data.size()), config);
  for (const Box& q : rig.Queries(300, 41)) {
    a.Refine(q, *rig.executor);
    b.Refine(q, *rig.executor);
  }
  EXPECT_EQ(a.SerializeBinary(), b.SerializeBinary());
  for (const Box& q : rig.Queries(50, 43)) {
    EXPECT_EQ(Bits(a.Estimate(q)), Bits(b.Estimate(q)));
  }
}

// Clone is a deep copy: it matches the source bitwise at clone time and is
// unaffected by the source refining onward.
TEST(KdeTest, CloneIsIndependent) {
  KdeRig rig;
  KdeConfig config;
  config.sample_capacity = 128;
  KdeHistogram h(rig.g.domain, static_cast<double>(rig.g.data.size()), config);
  Workload train = rig.Queries(200, 23);
  for (size_t i = 0; i < 100; ++i) h.Refine(train[i], *rig.executor);

  std::unique_ptr<Histogram> clone = h.Clone();
  const std::string frozen = clone->SerializeBinary();
  const Workload probes = rig.Queries(40, 29);
  for (const Box& q : probes) {
    EXPECT_EQ(Bits(clone->Estimate(q)), Bits(h.Estimate(q)));
  }
  for (size_t i = 100; i < train.size(); ++i) h.Refine(train[i], *rig.executor);
  EXPECT_EQ(clone->SerializeBinary(), frozen)
      << "refining the source must not disturb the clone";
}

// ---------------------------------------------------------------------------
// STHK fail-closed

TEST(KdeTest, SnapshotFailsClosedOnTruncationAndCorruption) {
  KdeRig rig;
  KdeConfig config;
  config.sample_capacity = 64;
  KdeHistogram h(rig.g.domain, static_cast<double>(rig.g.data.size()), config);
  for (const Box& q : rig.Queries(120, 19)) h.Refine(q, *rig.executor);
  const std::string blob = h.SerializeBinary();
  ASSERT_FALSE(blob.empty());

  // Every truncation point fails with a Status, never a crash or a
  // silently short histogram.
  for (size_t cut = 0; cut < blob.size(); cut += 3) {
    EXPECT_FALSE(
        KdeHistogram::DeserializeBinary(blob.substr(0, cut), config).ok())
        << "truncated at " << cut;
  }
  // Bit flips anywhere are caught (payload by the frame checksum, header
  // fields by their own validation).
  for (size_t pos = 0; pos < blob.size(); pos += 11) {
    std::string corrupt = blob;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    EXPECT_FALSE(KdeHistogram::DeserializeBinary(corrupt, config).ok())
        << "flipped byte " << pos;
  }
}

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, ConstructsEveryRegisteredNameAndEstimatesFinite) {
  KdeRig rig;
  HistogramConfig hc;
  hc.domain = rig.g.domain;
  hc.total_tuples = static_cast<double>(rig.g.data.size());
  hc.data = &rig.g.data;
  hc.buckets = 50;
  const Workload probes = rig.Queries(10, 31);
  ASSERT_FALSE(RegisteredNames().empty());
  for (const std::string& name : RegisteredNames()) {
    SCOPED_TRACE(name);
    StatusOr<std::unique_ptr<Histogram>> made = MakeHistogram(name, hc);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    for (const Box& q : probes) {
      const double est = (*made)->Estimate(q);
      EXPECT_TRUE(std::isfinite(est));
      EXPECT_GE(est, 0.0);
    }
  }
}

TEST(RegistryTest, UnknownNameIsNotFoundListingChoices) {
  HistogramConfig hc;
  hc.domain = Box({0.0, 0.0}, {1.0, 1.0});
  hc.total_tuples = 10.0;
  StatusOr<std::unique_ptr<Histogram>> made = MakeHistogram("nope", hc);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kNotFound);
  EXPECT_NE(made.status().message().find("stholes"), std::string::npos)
      << "the error must list the registered names";
}

TEST(RegistryTest, RestoreDispatchesOnBlobMagic) {
  KdeRig rig;
  const double total = static_cast<double>(rig.g.data.size());

  STHolesConfig sc;
  sc.max_buckets = 30;
  STHoles stholes(rig.g.domain, total, sc);
  KdeConfig kc;
  kc.sample_capacity = 64;
  KdeHistogram kde(rig.g.domain, total, kc);
  for (const Box& q : rig.Queries(100, 37)) {
    stholes.Refine(q, *rig.executor);
    kde.Refine(q, *rig.executor);
  }

  const std::string stholes_blob = stholes.SerializeBinary();
  const std::string kde_blob = kde.SerializeBinary();
  EXPECT_EQ(EstimatorNameForBlob(stholes_blob), "stholes");
  EXPECT_EQ(EstimatorNameForBlob(kde_blob), "kde");
  EXPECT_EQ(EstimatorNameForBlob("JUNKjunk"), "");

  HistogramConfig hc;
  hc.buckets = 64;
  const Workload probes = rig.Queries(40, 39);
  for (const std::string* blob : {&stholes_blob, &kde_blob}) {
    StatusOr<std::unique_ptr<Histogram>> restored =
        RestoreHistogram(*blob, hc);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const Histogram& original =
        blob == &stholes_blob ? static_cast<const Histogram&>(stholes)
                              : static_cast<const Histogram&>(kde);
    for (const Box& q : probes) {
      EXPECT_EQ(Bits((*restored)->Estimate(q)), Bits(original.Estimate(q)));
    }
  }
  EXPECT_EQ(RestoreHistogram("JUNKjunkjunkjunkjunkjunk", hc).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// KDE-backed serving

// A KdeHistogram drives the full serving snapshot cycle as a fleet tenant:
// the saved STHF container self-describes the tenant's estimator as "kde",
// and restoring the embedded blob through the registry reproduces the
// served snapshot bit-exactly.
TEST(KdeTest, TenantSnapshotRoundTripsThroughRegistry) {
  KdeRig rig;
  KdeConfig config;
  config.sample_capacity = 128;
  auto hist = std::make_unique<KdeHistogram>(
      rig.g.domain, static_cast<double>(rig.g.data.size()), config);

  FleetConfig fc;
  fc.refiners = 1;
  ServiceFleet fleet(fc);
  ASSERT_TRUE(fleet.AddTenant("kde", std::move(hist), *rig.executor).ok());
  for (const Box& q : rig.Queries(200, 47)) {
    if (*fleet.SubmitFeedback("kde", q) == FleetFeedbackOutcome::kQueueFull) {
      ASSERT_TRUE(fleet.Drain().ok());
      (void)fleet.SubmitFeedback("kde", q);
    }
  }
  ASSERT_TRUE(fleet.Drain().ok());

  const std::string path = testing::TempDir() + "sthist_kde_service.snap";
  ASSERT_TRUE(fleet.SaveSnapshot(path).ok());
  StatusOr<std::string> bytes = snapshot_io::ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::remove(path.c_str());

  StatusOr<snapshot_io::FleetSnapshot> snap =
      snapshot_io::DecodeFleetSnapshot(*bytes);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_EQ(snap->tenants.size(), 1u);
  const snapshot_io::FleetTenant& tenant = snap->tenants.front();
  EXPECT_EQ(tenant.estimator, "kde");
  EXPECT_EQ(tenant.applied_feedback, fleet.stats().feedback_applied);

  HistogramConfig hc;
  hc.buckets = config.sample_capacity;
  StatusOr<std::unique_ptr<Histogram>> restored =
      RestoreHistogram(tenant.histogram, hc);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  std::shared_ptr<const Histogram> live = fleet.Snapshot("kde");
  ASSERT_NE(live, nullptr);
  for (const Box& q : rig.Queries(60, 53)) {
    EXPECT_EQ(Bits((*restored)->Estimate(q)), Bits(live->Estimate(q)));
  }
  fleet.Stop();
}

}  // namespace
}  // namespace sthist
