// Fleet battery for the sharded multi-tenant serving layer
// (serve/service_fleet.h). The determinism centerpiece: per-shard replay
// through a K-refiner pool must be bitwise-identical (std::bit_cast) to a
// 1-refiner pool and to a serial single-threaded replay, with and without
// refine-path fault injection. Around it: an 8-reader × 16-tenant stress
// (the TSan structural race detector for the pool), tenant add/remove under
// live traffic, shed isolation, and a scheduler unit proving the
// work-claiming rule never runs one shard on two refiners.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "data/generators.h"
#include "histogram/stholes.h"
#include "serve/service_fleet.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// One shared dataset + executor: many tenants serve histograms over the
/// same underlying data (distinct attribute sets of one table in paper
/// terms), each refined by its own feedback stream.
struct DataVariant {
  explicit DataVariant(GeneratedData generated) : g(std::move(generated)) {}
  GeneratedData g;
  std::unique_ptr<Executor> executor;
};

// Heap-allocated so the executor's reference into the dataset survives the
// variants vector growing (a by-value DataVariant would move underneath it).
std::unique_ptr<DataVariant> MakeVariant(size_t tuples_per_cluster,
                                         uint64_t seed) {
  CrossConfig config;
  config.tuples_per_cluster = tuples_per_cluster;
  config.noise_tuples = tuples_per_cluster / 5;
  config.seed = seed;
  auto v = std::make_unique<DataVariant>(MakeCross(config));
  v->executor = std::make_unique<Executor>(v->g.data);
  return v;
}

/// Test fixture state shared by the differential and stress tests: two data
/// variants, per-tenant feedback streams (seed-derived, FIFO), and one probe
/// workload per variant.
struct FleetSetup {
  std::vector<std::unique_ptr<DataVariant>> variants;
  std::vector<std::string> keys;
  std::vector<Workload> feedback;  // keys[i] receives feedback[i] in order.
  std::vector<Workload> probes;    // Indexed by variant.

  const DataVariant& variant_of(size_t tenant) const {
    return *variants[tenant % variants.size()];
  }
  const Workload& probes_of(size_t tenant) const {
    return probes[tenant % variants.size()];
  }
};

FleetSetup MakeFleetSetup(size_t tenants, size_t feedback_per_tenant,
                          size_t probe_queries) {
  FleetSetup setup;
  setup.variants.push_back(MakeVariant(600, 1));
  setup.variants.push_back(MakeVariant(400, 2));
  for (size_t t = 0; t < tenants; ++t) {
    setup.keys.push_back("tenant_" + std::to_string(t));
    WorkloadConfig wc;
    wc.num_queries = feedback_per_tenant;
    wc.volume_fraction = 0.01;
    wc.seed = DeriveSeed(500, t);
    setup.feedback.push_back(
        MakeWorkload(setup.variant_of(t).g.domain, wc));
  }
  for (size_t v = 0; v < setup.variants.size(); ++v) {
    WorkloadConfig wc;
    wc.num_queries = probe_queries;
    wc.volume_fraction = 0.01;
    wc.seed = DeriveSeed(900, v);
    setup.probes.push_back(MakeWorkload(setup.variants[v]->g.domain, wc));
  }
  return setup;
}

std::unique_ptr<STHoles> MakeTenantHistogram(const DataVariant& v,
                                             size_t buckets) {
  STHolesConfig config;
  config.max_buckets = buckets;
  return std::make_unique<STHoles>(v.g.domain,
                                   static_cast<double>(v.g.data.size()),
                                   config);
}

/// Serial ground truth for one tenant: refine a fresh histogram with the
/// stream on the calling thread, then evaluate the probes.
std::vector<double> SerialReplayEstimates(const FleetSetup& setup,
                                          size_t tenant, size_t buckets,
                                          const std::vector<Box>& stream) {
  const DataVariant& v = setup.variant_of(tenant);
  std::unique_ptr<STHoles> replay = MakeTenantHistogram(v, buckets);
  for (const Box& q : stream) replay->Refine(q, *v.executor);
  std::vector<double> out;
  for (const Box& probe : setup.probes_of(tenant)) {
    out.push_back(replay->EstimateLinear(probe));
  }
  return out;
}

// Keys longer than std::string's inline buffer take the same lookups
// (Snapshot, FindShard and RemoveTenant find by string_view).
TEST(FleetTest, LongKeyLifecycle) {
  FleetSetup setup = MakeFleetSetup(1, 4, 4);
  const DataVariant& v = *setup.variants[0];
  const std::string key = "tenant-" + std::string(33, 'x');
  ASSERT_EQ(key.size(), 40u);
  ServiceFleet fleet;
  ASSERT_TRUE(
      fleet.AddTenant(key, MakeTenantHistogram(v, 10), *v.executor).ok());
  EXPECT_TRUE(fleet.HasTenant(key));
  EXPECT_FALSE(fleet.HasTenant(key.substr(0, 39)));
  ASSERT_NE(fleet.Snapshot(key), nullptr);
  ASSERT_TRUE(fleet.Estimate(key, setup.probes[0][0]).ok());
  for (const Box& q : setup.feedback[0]) {
    EXPECT_EQ(*fleet.SubmitFeedback(key, q), FleetFeedbackOutcome::kAccepted);
  }
  ASSERT_TRUE(fleet.DrainTenant(key).ok());
  StatusOr<TenantStats> stats = fleet.tenant_stats(key);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->feedback_applied, setup.feedback[0].size());
  const std::vector<double> replay =
      SerialReplayEstimates(setup, 0, 10, setup.feedback[0]);
  for (size_t i = 0; i < replay.size(); ++i) {
    StatusOr<double> est = fleet.Estimate(key, setup.probes[0][i]);
    ASSERT_TRUE(est.ok());
    EXPECT_TRUE(BitEqual(*est, replay[i]));
  }
  EXPECT_TRUE(fleet.RemoveTenant(key).ok());
  EXPECT_FALSE(fleet.HasTenant(key));
  EXPECT_EQ(fleet.Snapshot(key), nullptr);
}

TEST(FleetTest, TenantLifecycleStatusContract) {
  FleetSetup setup = MakeFleetSetup(1, 4, 4);
  const DataVariant& v = *setup.variants[0];
  ServiceFleet fleet;

  EXPECT_EQ(fleet.AddTenant("", MakeTenantHistogram(v, 10), *v.executor)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.AddTenant("a", nullptr, *v.executor).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      fleet.AddTenant("a", MakeTenantHistogram(v, 10), *v.executor).ok());
  EXPECT_EQ(fleet.AddTenant("a", MakeTenantHistogram(v, 10), *v.executor)
                .code(),
            StatusCode::kInvalidArgument)
      << "duplicate key";
  EXPECT_TRUE(fleet.HasTenant("a"));
  EXPECT_FALSE(fleet.HasTenant("b"));
  EXPECT_EQ(fleet.Estimate("b", setup.probes[0][0]).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(fleet.SubmitFeedback("b", setup.feedback[0][0]).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(fleet.RemoveTenant("b").code(), StatusCode::kNotFound);
  EXPECT_TRUE(fleet.RemoveTenant("a").ok());
  EXPECT_FALSE(fleet.HasTenant("a"));
  // A removed key is free for re-registration.
  EXPECT_TRUE(
      fleet.AddTenant("a", MakeTenantHistogram(v, 10), *v.executor).ok());

  fleet.Stop();
  EXPECT_EQ(fleet.AddTenant("c", MakeTenantHistogram(v, 10), *v.executor)
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(*fleet.SubmitFeedback("a", setup.feedback[0][0]),
            FleetFeedbackOutcome::kStopped);
  // Reads keep working against the final snapshots.
  StatusOr<double> est = fleet.Estimate("a", setup.probes[0][0]);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(std::isfinite(*est));
  EXPECT_TRUE(fleet.Drain().ok()) << "post-stop drain must not hang";
}

TEST(FleetTest, TenantIdIsSeedDeterministic) {
  FleetConfig a7;
  a7.seed = 7;
  FleetConfig b7;
  b7.seed = 7;
  FleetConfig c9;
  c9.seed = 9;
  ServiceFleet fleet_a(a7), fleet_b(b7), fleet_c(c9);
  EXPECT_EQ(fleet_a.TenantId("orders"), fleet_b.TenantId("orders"))
      << "same seed, same key: stable identity";
  EXPECT_NE(fleet_a.TenantId("orders"), fleet_a.TenantId("lineitem"));
  EXPECT_NE(fleet_a.TenantId("orders"), fleet_c.TenantId("orders"))
      << "identity must depend on the fleet seed";
}

// The determinism centerpiece: the same per-tenant FIFO streams produce
// bitwise-identical final snapshots whether the fleet runs 1 refiner or 4,
// and both equal a serial single-threaded replay.
TEST(FleetTest, PerShardReplayBitwiseAcrossRefinerCounts) {
  constexpr size_t kTenants = 16;
  constexpr size_t kBuckets = 24;
  constexpr size_t kFeedback = 40;
  FleetSetup setup = MakeFleetSetup(kTenants, kFeedback, 20);

  auto run_fleet = [&](size_t refiners) {
    FleetConfig config;
    config.refiners = refiners;
    config.queue_capacity = 4096;
    config.publish_batch = 8;
    config.seed = 7;
    ServiceFleet fleet(config);
    for (size_t t = 0; t < kTenants; ++t) {
      EXPECT_TRUE(fleet
                      .AddTenant(setup.keys[t],
                                 MakeTenantHistogram(setup.variant_of(t),
                                                     kBuckets),
                                 *setup.variant_of(t).executor)
                      .ok());
    }
    // Tenant-major interleave: every shard sees its own stream in FIFO
    // order while all shards contend for the shared pool.
    for (size_t i = 0; i < kFeedback; ++i) {
      for (size_t t = 0; t < kTenants; ++t) {
        StatusOr<FleetFeedbackOutcome> outcome =
            fleet.SubmitFeedback(setup.keys[t], setup.feedback[t][i]);
        EXPECT_TRUE(outcome.ok() &&
                    *outcome == FleetFeedbackOutcome::kAccepted);
      }
    }
    EXPECT_TRUE(fleet.Drain().ok());
    fleet.Stop();

    FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.feedback_accepted, kTenants * kFeedback);
    EXPECT_EQ(stats.feedback_applied, kTenants * kFeedback);
    EXPECT_EQ(stats.queue_depth, 0u);

    std::vector<std::vector<double>> estimates(kTenants);
    for (size_t t = 0; t < kTenants; ++t) {
      std::shared_ptr<const Histogram> snap = fleet.Snapshot(setup.keys[t]);
      EXPECT_TRUE(snap != nullptr);
      if (snap == nullptr) continue;
      for (const Box& probe : setup.probes_of(t)) {
        const double linear = snap->EstimateLinear(probe);
        EXPECT_TRUE(BitEqual(snap->Estimate(probe), linear))
            << "indexed vs linear diverged on the drained snapshot";
        estimates[t].push_back(linear);
      }
    }
    return estimates;
  };

  const std::vector<std::vector<double>> pool1 = run_fleet(1);
  const std::vector<std::vector<double>> pool4 = run_fleet(4);

  for (size_t t = 0; t < kTenants; ++t) {
    // Ground truth 1: serial replay on this thread.
    const std::vector<double> serial = SerialReplayEstimates(
        setup, t, kBuckets,
        {setup.feedback[t].begin(), setup.feedback[t].end()});
    const Workload& probes = setup.probes_of(t);
    for (size_t p = 0; p < probes.size(); ++p) {
      EXPECT_TRUE(BitEqual(pool1[t][p], serial[p]))
          << "1-refiner fleet diverged from serial replay, tenant " << t;
      EXPECT_TRUE(BitEqual(pool4[t][p], serial[p]))
          << "4-refiner fleet diverged from serial replay, tenant " << t;
    }
  }
}

// FleetConfig::faults gives every shard its own FaultyOracle on the refine
// path. The injected faults must reach the histograms (their robustness
// layer records events), cost no feedback (accepted == applied), and stay
// deterministic per shard: each tenant's final snapshot is bit-identical at
// 1 and 4 refiners.
TEST(FleetTest, RefinePathFaultsAreDeterministicPerShard) {
  constexpr size_t kTenants = 6;
  constexpr size_t kBuckets = 20;
  constexpr size_t kFeedback = 60;
  FleetSetup setup = MakeFleetSetup(kTenants, kFeedback, 20);

  auto run_fleet = [&](size_t refiners) {
    FleetConfig config;
    config.refiners = refiners;
    config.queue_capacity = 4096;
    config.publish_batch = 8;
    config.faults.rate = 0.2;
    config.faults.seed = 11;
    ServiceFleet fleet(config);
    for (size_t t = 0; t < kTenants; ++t) {
      EXPECT_TRUE(fleet
                      .AddTenant(setup.keys[t],
                                 MakeTenantHistogram(setup.variant_of(t),
                                                     kBuckets),
                                 *setup.variant_of(t).executor)
                      .ok());
    }
    for (size_t i = 0; i < kFeedback; ++i) {
      for (size_t t = 0; t < kTenants; ++t) {
        EXPECT_TRUE(
            fleet.SubmitFeedback(setup.keys[t], setup.feedback[t][i]).ok());
      }
    }
    EXPECT_TRUE(fleet.Drain().ok());
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.feedback_accepted, kTenants * kFeedback);
    EXPECT_EQ(stats.feedback_applied, stats.feedback_accepted);

    std::vector<std::vector<double>> estimates(kTenants);
    for (size_t t = 0; t < kTenants; ++t) {
      std::shared_ptr<const Histogram> snap = fleet.Snapshot(setup.keys[t]);
      EXPECT_GT(snap->robustness().total(), 0u)
          << "tenant " << t << " recorded no robustness events";
      for (const Box& probe : setup.probes_of(t)) {
        estimates[t].push_back(snap->EstimateLinear(probe));
      }
    }
    return estimates;
  };

  const std::vector<std::vector<double>> pool1 = run_fleet(1);
  const std::vector<std::vector<double>> pool4 = run_fleet(4);
  for (size_t t = 0; t < kTenants; ++t) {
    for (size_t p = 0; p < pool1[t].size(); ++p) {
      EXPECT_TRUE(BitEqual(pool1[t][p], pool4[t][p]))
          << "faulted tenant " << t << " diverged between 1 and 4 refiners";
    }
  }
}

// 8 readers × 16 tenants against a live 4-refiner pool: every pinned shard
// snapshot must be internally consistent (indexed == linear, bit for bit)
// and the drained end state must equal the serial replay per shard.
TEST(FleetTest, ConcurrentReadersSeeConsistentShardSnapshots) {
  constexpr size_t kTenants = 16;
  constexpr size_t kReaders = 8;
  constexpr size_t kReadsPerReader = 1200;
  constexpr size_t kBuckets = 24;
  constexpr size_t kFeedback = 60;
  FleetSetup setup = MakeFleetSetup(kTenants, kFeedback, 20);

  FleetConfig config;
  config.refiners = 4;
  config.queue_capacity = 4096;
  config.publish_batch = 8;
  ServiceFleet fleet(config);
  for (size_t t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(fleet
                    .AddTenant(setup.keys[t],
                               MakeTenantHistogram(setup.variant_of(t),
                                                   kBuckets),
                               *setup.variant_of(t).executor)
                    .ok());
  }

  std::atomic<bool> start{false};
  std::atomic<size_t> inconsistent{0};
  std::atomic<size_t> nonfinite{0};
  std::atomic<size_t> missing{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!start.load()) std::this_thread::yield();
      for (size_t i = 0; i < kReadsPerReader; ++i) {
        const size_t t = (r + i) % kTenants;
        const Workload& probes = setup.probes_of(t);
        const Box& q = probes[(r + i) % probes.size()];
        std::shared_ptr<const Histogram> snap =
            fleet.Snapshot(setup.keys[t]);
        if (snap == nullptr) {
          missing.fetch_add(1);
          continue;
        }
        const double indexed = snap->Estimate(q);
        const double linear = snap->EstimateLinear(q);
        if (!std::isfinite(indexed) || !std::isfinite(linear)) {
          nonfinite.fetch_add(1);
        }
        if (!BitEqual(indexed, linear)) inconsistent.fetch_add(1);
      }
    });
  }

  start.store(true);
  // Single producer per shard: the accepted sequence is the submission
  // order, so the end state is replayable.
  for (size_t i = 0; i < kFeedback; ++i) {
    for (size_t t = 0; t < kTenants; ++t) {
      StatusOr<FleetFeedbackOutcome> outcome =
          fleet.SubmitFeedback(setup.keys[t], setup.feedback[t][i]);
      ASSERT_TRUE(outcome.ok());
      ASSERT_EQ(*outcome, FleetFeedbackOutcome::kAccepted);
    }
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_TRUE(fleet.Drain().ok());
  fleet.Stop();

  EXPECT_EQ(missing.load(), 0u);
  EXPECT_EQ(nonfinite.load(), 0u);
  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_GE(fleet.stats().reads_served, 0u);

  for (size_t t = 0; t < kTenants; ++t) {
    const std::vector<double> serial = SerialReplayEstimates(
        setup, t, kBuckets,
        {setup.feedback[t].begin(), setup.feedback[t].end()});
    std::shared_ptr<const Histogram> snap = fleet.Snapshot(setup.keys[t]);
    ASSERT_TRUE(snap != nullptr);
    const Workload& probes = setup.probes_of(t);
    for (size_t p = 0; p < probes.size(); ++p) {
      EXPECT_TRUE(BitEqual(snap->EstimateLinear(probes[p]), serial[p]))
          << "tenant " << t << " diverged from serial replay under stress";
    }
  }
}

TEST(FleetTest, TenantAddRemoveDuringLiveTraffic) {
  constexpr size_t kInitial = 8;
  constexpr size_t kBuckets = 16;
  FleetSetup setup = MakeFleetSetup(24, 40, 10);

  FleetConfig config;
  config.refiners = 3;
  config.queue_capacity = 256;
  ServiceFleet fleet(config);
  for (size_t t = 0; t < kInitial; ++t) {
    ASSERT_TRUE(fleet
                    .AddTenant(setup.keys[t],
                               MakeTenantHistogram(setup.variant_of(t),
                                                   kBuckets),
                               *setup.variant_of(t).executor)
                    .ok());
  }

  std::atomic<bool> stop{false};
  // Traffic thread: reads and feedback across all keys — including ones
  // being added and removed underneath it. kNotFound is expected there;
  // crashes and non-finite estimates are not.
  std::thread traffic([&] {
    size_t i = 0;
    while (!stop.load()) {
      const size_t t = i % setup.keys.size();
      const Workload& probes = setup.probes_of(t);
      StatusOr<double> est = fleet.Estimate(setup.keys[t], probes[i % probes.size()]);
      if (est.ok()) {
        EXPECT_TRUE(std::isfinite(*est));
      } else {
        EXPECT_EQ(est.status().code(), StatusCode::kNotFound);
      }
      const Workload& stream = setup.feedback[t];
      (void)fleet.SubmitFeedback(setup.keys[t], stream[i % stream.size()]);
      ++i;
    }
  });

  // A reader holding a snapshot across its tenant's removal keeps a valid
  // histogram.
  std::shared_ptr<const Histogram> held = fleet.Snapshot(setup.keys[0]);
  ASSERT_TRUE(held != nullptr);

  for (size_t round = 0; round < 4; ++round) {
    // Add 4 new tenants.
    for (size_t j = 0; j < 4; ++j) {
      const size_t t = kInitial + round * 4 + j;
      ASSERT_TRUE(fleet
                      .AddTenant(setup.keys[t],
                                 MakeTenantHistogram(setup.variant_of(t),
                                                     kBuckets),
                                 *setup.variant_of(t).executor)
                      .ok());
    }
    // Remove two of the earliest still-live tenants.
    for (size_t j = 0; j < 2; ++j) {
      const size_t t = round * 2 + j;
      ASSERT_TRUE(fleet.RemoveTenant(setup.keys[t]).ok());
      EXPECT_FALSE(fleet.HasTenant(setup.keys[t]));
    }
  }
  stop.store(true);
  traffic.join();

  EXPECT_TRUE(std::isfinite(held->Estimate(setup.probes_of(0)[0])))
      << "snapshot held across RemoveTenant must stay valid";

  EXPECT_TRUE(fleet.Drain().ok());
  fleet.Stop();

  FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.tenants, fleet.TenantKeys().size());
  EXPECT_EQ(stats.tenants, kInitial + 16 - 8);
  EXPECT_EQ(stats.tenants_added, kInitial + 16);
  EXPECT_EQ(stats.tenants_removed, 8u);
  EXPECT_EQ(stats.feedback_applied, stats.feedback_accepted)
      << "every accepted item is applied, even for removed tenants";
  EXPECT_EQ(stats.queue_depth, 0u);
  for (const std::string& key : fleet.TenantKeys()) {
    std::shared_ptr<const Histogram> snap = fleet.Snapshot(key);
    ASSERT_TRUE(snap != nullptr);
  }
}

// A feedback oracle that parks the claiming refiner inside its first Count
// until released — makes per-shard backpressure deterministic to provoke.
class GateOracle : public CardinalityOracle {
 public:
  explicit GateOracle(const CardinalityOracle& inner) : inner_(inner) {}

  double Count(const Box& box) const override {
    entered_.Open();
    release_.Wait();
    return inner_.Count(box);
  }

  void WaitUntilEntered() const { entered_.Wait(); }
  void Release() const { release_.Open(); }

 private:
  class Flag {
   public:
    void Open() {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        open_ = true;
      }
      cv_.notify_all();
    }
    void Wait() {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return open_; });
    }

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool open_ = false;
  };

  const CardinalityOracle& inner_;
  mutable Flag entered_;
  mutable Flag release_;
};

// Overloading one tenant's queue must shed only that tenant's feedback:
// the other shard keeps accepting, applying, and draining on the pool's
// remaining capacity.
TEST(FleetTest, QueueFullSheddingIsolatedToOverloadedShard) {
  FleetSetup setup = MakeFleetSetup(2, 48, 10);
  const DataVariant& va = setup.variant_of(0);
  const DataVariant& vb = setup.variant_of(1);
  GateOracle gate(*va.executor);

  FleetConfig config;
  config.refiners = 2;
  config.queue_capacity = 4;
  config.publish_batch = 4;
  ServiceFleet fleet(config);
  ASSERT_TRUE(
      fleet.AddTenant("gated", MakeTenantHistogram(va, 16), gate).ok());
  ASSERT_TRUE(
      fleet.AddTenant("healthy", MakeTenantHistogram(vb, 16), *vb.executor)
          .ok());

  // First item parks one pool worker inside the gated tenant's oracle.
  ASSERT_EQ(*fleet.SubmitFeedback("gated", setup.feedback[0][0]),
            FleetFeedbackOutcome::kAccepted);
  gate.WaitUntilEntered();

  // The gated shard's queue fills to capacity, then sheds — per shard, not
  // per fleet.
  size_t accepted = 0, shed = 0;
  for (size_t i = 1; i < 9; ++i) {
    StatusOr<FleetFeedbackOutcome> outcome =
        fleet.SubmitFeedback("gated", setup.feedback[0][i]);
    ASSERT_TRUE(outcome.ok());
    if (*outcome == FleetFeedbackOutcome::kAccepted) {
      ++accepted;
    } else {
      EXPECT_EQ(*outcome, FleetFeedbackOutcome::kQueueFull);
      ++shed;
    }
  }
  EXPECT_EQ(accepted, config.queue_capacity);
  EXPECT_EQ(shed, 8 - config.queue_capacity);

  // The healthy tenant rides the pool's other worker: its stream flows
  // end to end while the gated shard stays parked. kQueueFull here is
  // legitimate transient backpressure against the tiny shared capacity, so
  // the producer retries; what must never happen is kStopped or kNotFound —
  // overload on the gated shard leaking across would surface as either.
  std::vector<Box> healthy_stream(setup.feedback[1].begin(),
                                  setup.feedback[1].end());
  for (const Box& q : healthy_stream) {
    for (;;) {
      StatusOr<FleetFeedbackOutcome> outcome =
          fleet.SubmitFeedback("healthy", q);
      ASSERT_TRUE(outcome.ok());
      if (*outcome == FleetFeedbackOutcome::kAccepted) break;
      ASSERT_EQ(*outcome, FleetFeedbackOutcome::kQueueFull)
          << "overload must not leak across shards";
      std::this_thread::yield();
    }
  }
  EXPECT_TRUE(fleet.DrainTenant("healthy").ok());

  const std::vector<double> serial =
      SerialReplayEstimates(setup, 1, 16, healthy_stream);
  std::shared_ptr<const Histogram> snap = fleet.Snapshot("healthy");
  const Workload& probes = setup.probes_of(1);
  for (size_t p = 0; p < probes.size(); ++p) {
    EXPECT_TRUE(BitEqual(snap->EstimateLinear(probes[p]), serial[p]));
  }

  gate.Release();
  EXPECT_TRUE(fleet.Drain().ok());
  fleet.Stop();
  FleetStats stats = fleet.stats();
  // The healthy producer's retries may also have bounced off the tiny
  // queue, so the fleet-wide counter is a lower bound of the gated sheds.
  EXPECT_GE(stats.feedback_dropped_full, shed);
  EXPECT_EQ(stats.feedback_applied,
            accepted + 1 + healthy_stream.size());
}

/// Counts concurrent Count() entries per tenant: the scheduler-unit probe
/// for the claiming rule. Any overlap means two refiners ran one shard.
class ConcurrencyProbeOracle : public CardinalityOracle {
 public:
  explicit ConcurrencyProbeOracle(const CardinalityOracle& inner)
      : inner_(inner) {}

  double Count(const Box& box) const override {
    const int now = entries_.fetch_add(1, std::memory_order_acq_rel) + 1;
    int seen = max_entries_.load(std::memory_order_relaxed);
    while (now > seen &&
           !max_entries_.compare_exchange_weak(seen, now,
                                               std::memory_order_relaxed)) {
    }
    // Widen the overlap window: a violating second refiner would have to
    // land inside the inner count *plus* this yield.
    std::this_thread::yield();
    const double result = inner_.Count(box);
    entries_.fetch_sub(1, std::memory_order_acq_rel);
    return result;
  }

  int max_entries() const {
    return max_entries_.load(std::memory_order_relaxed);
  }

 private:
  const CardinalityOracle& inner_;
  mutable std::atomic<int> entries_{0};
  mutable std::atomic<int> max_entries_{0};
};

// Scheduler unit: 100 tenants churned by 4 producers over a 4-refiner pool.
// The per-shard claim must keep every shard on at most one refiner at a
// time, and Drain() must reach quiescence (applied == accepted, empty
// queues) despite the churn.
TEST(FleetSchedulerTest, WorkClaimingNeverOverlapsAndDrainsToQuiescence) {
  constexpr size_t kTenants = 100;
  constexpr size_t kProducers = 4;
  constexpr size_t kRoundsPerProducer = 4;
  constexpr size_t kBuckets = 12;
  FleetSetup setup = MakeFleetSetup(kTenants, 16, 4);

  FleetConfig config;
  config.refiners = 4;
  config.queue_capacity = 64;
  config.publish_batch = 4;
  ServiceFleet fleet(config);

  std::vector<std::unique_ptr<ConcurrencyProbeOracle>> probes;
  probes.reserve(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    probes.push_back(std::make_unique<ConcurrencyProbeOracle>(
        *setup.variant_of(t).executor));
    ASSERT_TRUE(fleet
                    .AddTenant(setup.keys[t],
                               MakeTenantHistogram(setup.variant_of(t),
                                                   kBuckets),
                               *probes[t])
                    .ok());
  }

  std::atomic<size_t> accepted{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t round = 0; round < kRoundsPerProducer; ++round) {
        for (size_t t = 0; t < kTenants; ++t) {
          const Workload& stream = setup.feedback[t];
          StatusOr<FleetFeedbackOutcome> outcome = fleet.SubmitFeedback(
              setup.keys[t], stream[(p + round) % stream.size()]);
          if (outcome.ok() &&
              *outcome == FleetFeedbackOutcome::kAccepted) {
            accepted.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_TRUE(fleet.Drain().ok());

  for (size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(probes[t]->max_entries(), 1)
        << "two refiners entered tenant " << t << " concurrently";
  }
  FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.feedback_accepted, accepted.load());
  EXPECT_EQ(stats.feedback_applied, accepted.load())
      << "Drain must reach quiescence";
  EXPECT_EQ(stats.queue_depth, 0u);

  fleet.Stop();
  EXPECT_EQ(fleet.stats().feedback_applied, accepted.load());
}

}  // namespace
}  // namespace sthist
