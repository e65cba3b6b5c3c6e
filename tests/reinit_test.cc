// Drift-recovery battery for the serving layer's stagnation detector,
// feedback reservoir, and hot-swap re-initialization (serve/stagnation.h,
// and the per-tenant drift loop of serve/service_fleet.h). The
// synchronous-rebuild tests hold the whole trigger -> rebuild -> swap ->
// recovery loop to run-twice and 1-vs-4-refiner bitwise equality; the
// background tests pin the liveness contract (reads and refinement never
// block on a rebuild), the lifetime contract (no builder thread outlives its
// fleet) and the failure contract (a failed or faulted rebuild leaves the
// incumbent serving and increments swaps_aborted).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/box.h"
#include "core/check.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "histogram/stholes.h"
#include "serve/service_fleet.h"
#include "serve/stagnation.h"
#include "workload/drift.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// ---------------------------------------------------------------------------
// StagnationDetector unit tests.
// ---------------------------------------------------------------------------

StagnationConfig SmallDetector() {
  StagnationConfig config;
  config.window = 4;
  config.trigger_nae = 0.9;
  config.rearm_nae = 0.5;
  config.cooldown = 3;
  config.retrigger_backstop = 10;
  return config;
}

TEST(StagnationDetectorTest, ValidateRejectsBadKnobs) {
  EXPECT_TRUE(Validate(SmallDetector()).ok());
  StagnationConfig bad = SmallDetector();
  bad.window = 0;
  EXPECT_FALSE(Validate(bad).ok());
  bad = SmallDetector();
  bad.rearm_nae = bad.trigger_nae;  // Hysteresis requires rearm < trigger.
  EXPECT_FALSE(Validate(bad).ok());
  bad = SmallDetector();
  bad.retrigger_backstop = bad.cooldown;
  EXPECT_FALSE(Validate(bad).ok());
}

TEST(StagnationDetectorTest, NeverFiresBeforeTheWindowFills) {
  StagnationDetector detector(SmallDetector());
  EXPECT_TRUE(std::isnan(detector.RollingNae()));
  EXPECT_EQ(detector.state(), StagnationDetector::State::kWarmup);
  // Estimate off by 100 while the trivial control is exact: NAE is enormous
  // from the first observation, yet warmup must hold fire.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(detector.Observe(0.0, 100.0, 100.0)) << "observation " << i;
  }
  EXPECT_FALSE(detector.window_full());
  // The window-filling observation both arms and fires.
  EXPECT_TRUE(detector.Observe(0.0, 100.0, 100.0));
  EXPECT_EQ(detector.triggers(), 1u);
  EXPECT_EQ(detector.state(), StagnationDetector::State::kCooldown);
}

TEST(StagnationDetectorTest, GoodEstimatesNeverFire) {
  StagnationDetector detector(SmallDetector());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(detector.Observe(100.0, 50.0, 100.0));
  }
  EXPECT_EQ(detector.triggers(), 0u);
  EXPECT_EQ(detector.RollingNae(), 0.0);
  EXPECT_EQ(detector.state(), StagnationDetector::State::kArmed);
}

TEST(StagnationDetectorTest, NonFiniteObservationsAreSkipped) {
  StagnationDetector detector(SmallDetector());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(detector.Observe(nan, 100.0, 100.0));
  EXPECT_FALSE(detector.Observe(0.0, nan, 100.0));
  EXPECT_FALSE(detector.Observe(0.0, 100.0, nan));
  EXPECT_EQ(detector.observations(), 0u);
  EXPECT_TRUE(std::isnan(detector.RollingNae()));
}

TEST(StagnationDetectorTest, HysteresisHoldsUntilRecoveryThenRefires) {
  StagnationDetector detector(SmallDetector());
  for (int i = 0; i < 4; ++i) detector.Observe(0.0, 100.0, 100.0);
  ASSERT_EQ(detector.triggers(), 1u);

  // Still stagnated through the cooldown: no refire (rolling NAE stays above
  // rearm, and the backstop of 10 is not yet reached).
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(detector.Observe(0.0, 100.0, 100.0));
  }
  EXPECT_EQ(detector.triggers(), 1u);

  // Recovery: perfect estimates wash the window below rearm, re-arming the
  // detector after the cooldown...
  for (int i = 0; i < 6; ++i) detector.Observe(100.0, 50.0, 100.0);
  EXPECT_EQ(detector.state(), StagnationDetector::State::kArmed);
  // ...so renewed stagnation fires again once the window is bad enough.
  size_t before = detector.triggers();
  bool fired = false;
  for (int i = 0; i < 4 && !fired; ++i) {
    fired = detector.Observe(0.0, 100.0, 100.0);
  }
  EXPECT_TRUE(fired);
  EXPECT_EQ(detector.triggers(), before + 1);
}

TEST(StagnationDetectorTest, BackstopRearmsWithoutRecovery) {
  StagnationDetector detector(SmallDetector());
  for (int i = 0; i < 4; ++i) detector.Observe(0.0, 100.0, 100.0);
  ASSERT_EQ(detector.triggers(), 1u);
  // Permanently stagnated (a failed rebuild): the backstop must eventually
  // re-arm and refire rather than disabling detection forever.
  size_t extra = 0;
  while (detector.triggers() == 1 && extra < 50) {
    detector.Observe(0.0, 100.0, 100.0);
    ++extra;
  }
  EXPECT_EQ(detector.triggers(), 2u);
  EXPECT_EQ(extra, SmallDetector().retrigger_backstop);
}

TEST(StagnationDetectorTest, NoteSwapClearsTheWindowAndCoolsDown) {
  StagnationDetector detector(SmallDetector());
  for (int i = 0; i < 4; ++i) detector.Observe(0.0, 100.0, 100.0);
  detector.NoteSwap();
  EXPECT_TRUE(std::isnan(detector.RollingNae()));
  EXPECT_FALSE(detector.window_full());
  EXPECT_EQ(detector.state(), StagnationDetector::State::kCooldown);
  // The cleared window refills from post-swap observations only.
  detector.Observe(100.0, 50.0, 100.0);
  EXPECT_EQ(detector.RollingNae(), 0.0);
}

TEST(StagnationDetectorTest, EqualStreamsProduceEqualTriggerSequences) {
  StagnationConfig config = SmallDetector();
  StagnationDetector a(config);
  StagnationDetector b(config);
  uint64_t seed = 7;
  std::vector<bool> fires_a;
  std::vector<bool> fires_b;
  for (int i = 0; i < 500; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    const double actual = static_cast<double>(seed % 1000);
    const double est = static_cast<double>((seed >> 10) % 1000);
    fires_a.push_back(a.Observe(est, 500.0, actual));
    fires_b.push_back(b.Observe(est, 500.0, actual));
  }
  EXPECT_EQ(fires_a, fires_b);
  EXPECT_TRUE(BitEqual(a.RollingNae(), b.RollingNae()));
}

// ---------------------------------------------------------------------------
// FeedbackReservoir unit tests.
// ---------------------------------------------------------------------------

ReservoirConfig SmallReservoir() {
  ReservoirConfig config;
  config.capacity = 64;
  config.max_points_per_feedback = 4;
  config.tuples_per_point = 10.0;
  config.age_interval = 100;
  config.seed = 4242;
  return config;
}

TEST(FeedbackReservoirTest, DeterministicForEqualStreams) {
  FeedbackReservoir a(2, SmallReservoir());
  FeedbackReservoir b(2, SmallReservoir());
  uint64_t seed = 3;
  for (int i = 0; i < 400; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    const double lo = static_cast<double>(seed % 100);
    Box box({lo, lo * 0.5}, {lo + 5.0, lo * 0.5 + 5.0});
    const double actual = static_cast<double>((seed >> 8) % 200);
    a.Add(box, actual);
    b.Add(box, actual);
  }
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  Dataset da = a.ToDataset();
  Dataset db = b.ToDataset();
  for (size_t i = 0; i < da.size(); ++i) {
    for (size_t d = 0; d < da.dim(); ++d) {
      ASSERT_TRUE(BitEqual(da.value(i, d), db.value(i, d)))
          << "slot " << i << " dim " << d;
    }
  }
}

TEST(FeedbackReservoirTest, CapacityBoundsTheSample) {
  ReservoirConfig config = SmallReservoir();
  FeedbackReservoir reservoir(2, config);
  Box box = Box::Cube(2, 0.0, 10.0);
  for (int i = 0; i < 1000; ++i) reservoir.Add(box, 100.0);
  EXPECT_EQ(reservoir.size(), config.capacity);
  EXPECT_EQ(reservoir.feedbacks_seen(), 1000u);
}

TEST(FeedbackReservoirTest, SkipsFeedbackItCannotUse) {
  FeedbackReservoir reservoir(2, SmallReservoir());
  reservoir.Add(Box::Cube(3, 0.0, 1.0), 100.0);  // Wrong arity.
  reservoir.Add(Box::Cube(2, 0.0, 1.0), 0.0);    // Empty result.
  reservoir.Add(Box::Cube(2, 0.0, 1.0), -5.0);   // Negative count.
  reservoir.Add(Box::Cube(2, 0.0, 1.0),
                std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(reservoir.size(), 0u);
  EXPECT_EQ(reservoir.feedbacks_seen(), 0u);
}

TEST(FeedbackReservoirTest, CountWeightingScalesPointsPerFeedback) {
  ReservoirConfig config = SmallReservoir();  // 10 tuples per point, max 4.
  FeedbackReservoir reservoir(2, config);
  Box box = Box::Cube(2, 0.0, 1.0);
  reservoir.Add(box, 1.0);  // ceil(0.1) -> 1 point.
  EXPECT_EQ(reservoir.size(), 1u);
  reservoir.Add(box, 25.0);  // ceil(2.5) -> 3 points.
  EXPECT_EQ(reservoir.size(), 4u);
  reservoir.Add(box, 1e9);  // Clamped to max_points_per_feedback.
  EXPECT_EQ(reservoir.size(), 8u);
}

TEST(FeedbackReservoirTest, PointsStayInsideTheirFeedbackBox) {
  FeedbackReservoir reservoir(2, SmallReservoir());
  Box box({2.0, -3.0}, {4.5, -1.0});
  for (int i = 0; i < 200; ++i) reservoir.Add(box, 50.0);
  Dataset sample = reservoir.ToDataset();
  ASSERT_GT(sample.size(), 0u);
  for (size_t i = 0; i < sample.size(); ++i) {
    EXPECT_TRUE(box.ContainsPoint(sample.row(i))) << "slot " << i;
  }
}

TEST(FeedbackReservoirTest, ClearEmptiesTheSample) {
  FeedbackReservoir reservoir(2, SmallReservoir());
  reservoir.Add(Box::Cube(2, 0.0, 1.0), 100.0);
  ASSERT_GT(reservoir.size(), 0u);
  reservoir.Clear();
  EXPECT_EQ(reservoir.size(), 0u);
  reservoir.Add(Box::Cube(2, 0.0, 1.0), 100.0);
  EXPECT_GT(reservoir.size(), 0u);
}

// ---------------------------------------------------------------------------
// Per-tenant re-initialization through ServiceFleet.
// ---------------------------------------------------------------------------

constexpr char kTenant[] = "drifting";

// One drifting serving scenario: a moving-Cross schedule with a single large
// jump between phase 0 (the histogram's training distribution) and phase 1
// (what it serves after the drift).
struct DriftSetup {
  DriftSchedule schedule;
  std::unique_ptr<PhasedOracle> oracle;
};

DriftSetup MakeDriftSetup() {
  DriftConfig dc;
  dc.scenario = DriftScenario::kMovingCross;
  dc.phases = 2;
  dc.seed = 17;
  dc.dim = 2;
  dc.tuples = 2200;
  dc.move_span = 0.5;  // One big jump: phase centers at -0.25 and +0.25.
  WorkloadConfig wc;
  wc.num_queries = 400;
  wc.volume_fraction = 0.01;
  StatusOr<DriftSchedule> schedule = MakeDriftSchedule(dc, wc);
  STHIST_CHECK(schedule.ok());
  DriftSetup setup{std::move(*schedule), nullptr};
  setup.oracle = std::make_unique<PhasedOracle>(setup.schedule);
  return setup;
}

// An STHoles trained on phase `p` of the schedule (plain refinement, no
// subspace init — the quality gap is what the rebuild closes).
std::unique_ptr<STHoles> TrainOnPhase(const DriftSetup& setup, size_t p,
                                      size_t buckets) {
  const DriftPhase& phase = setup.schedule.phase(p);
  Executor executor(phase.data.data);
  STHolesConfig config;
  config.max_buckets = buckets;
  auto hist = std::make_unique<STHoles>(
      setup.schedule.domain(), static_cast<double>(phase.data.data.size()),
      config);
  Train(hist.get(), phase.queries, executor);
  return hist;
}

TenantOptions ReinitTenant(const DriftSetup& setup) {
  TenantOptions options;
  ReinitConfig& reinit = options.reinit;
  reinit.enabled = true;
  reinit.domain = setup.schedule.domain();
  reinit.background = false;  // Deterministic inline rebuilds.
  reinit.detector.window = 32;
  reinit.detector.trigger_nae = 0.5;
  reinit.detector.rearm_nae = 0.3;
  reinit.detector.cooldown = 40;
  reinit.detector.retrigger_backstop = 120;
  reinit.reservoir.capacity = 256;
  return options;
}

// A fleet of `refiners` serving the phase-0-trained histogram as kTenant
// with `options`, the oracle left on phase 0 for the trivial control.
std::unique_ptr<ServiceFleet> DriftingFleet(const DriftSetup& setup,
                                            const TenantOptions& options,
                                            size_t refiners = 1) {
  FleetConfig config;
  config.refiners = refiners;
  config.queue_capacity = 4096;
  auto fleet = std::make_unique<ServiceFleet>(config);
  setup.oracle->SetPhase(0);
  EXPECT_TRUE(fleet
                  ->AddTenant(kTenant, TrainOnPhase(setup, 0, 40),
                              *setup.oracle, options)
                  .ok());
  return fleet;
}

struct RunResult {
  TenantStats stats;
  std::vector<double> final_estimates;
};

// `key`'s counters and its estimates of `probes`, read from a stopped fleet.
RunResult Collect(const ServiceFleet& fleet, const std::string& key,
                  const Workload& probes) {
  RunResult result;
  result.stats = *fleet.tenant_stats(key);
  for (const Box& q : probes) {
    result.final_estimates.push_back(*fleet.Estimate(key, q));
  }
  return result;
}

// Serves phase 1 through a tenant whose histogram was trained on phase 0,
// submitting each query's served estimate as feedback and draining per item
// so the loop is fully deterministic.
RunResult ServePhaseOne(const DriftSetup& setup, const TenantOptions& options) {
  std::unique_ptr<ServiceFleet> fleet = DriftingFleet(setup, options);
  setup.oracle->SetPhase(1);
  const Workload& queries = setup.schedule.phase(1).queries;
  for (const Box& q : queries) {
    const double est = *fleet->Estimate(kTenant, q);
    // A drain-per-item single producer can never fill the queue.
    STHIST_CHECK(*fleet->SubmitFeedback(kTenant, q, est) ==
                 FleetFeedbackOutcome::kAccepted);
    STHIST_CHECK(fleet->Drain().ok());
  }
  fleet->Stop();
  return Collect(*fleet, kTenant, queries);
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.stats.reinit_triggers, b.stats.reinit_triggers);
  EXPECT_EQ(a.stats.reinit_swaps_completed, b.stats.reinit_swaps_completed);
  EXPECT_EQ(a.stats.reinit_swaps_aborted, b.stats.reinit_swaps_aborted);
  EXPECT_EQ(a.stats.feedback_applied, b.stats.feedback_applied);
  ASSERT_EQ(a.final_estimates.size(), b.final_estimates.size());
  for (size_t i = 0; i < a.final_estimates.size(); ++i) {
    EXPECT_TRUE(BitEqual(a.final_estimates[i], b.final_estimates[i]))
        << "estimate " << i << " diverged";
  }
}

// A one-shot gate a rebuild hook parks on: the builder reports entry, then
// waits until the test opens the gate.
class BuilderGate {
 public:
  void ParkUntilOpened() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  bool entered() {
    std::lock_guard<std::mutex> lock(mutex_);
    return entered_;
  }

  bool WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return entered_; });
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

// A background re-init tenant whose rebuild parks on `gate` and then
// returns a clone of `reference`; `returned` flips once the hook is done.
TenantOptions ParkedRebuildTenant(const DriftSetup& setup, BuilderGate* gate,
                                  const STHoles* reference,
                                  std::atomic<bool>* returned = nullptr) {
  TenantOptions options = ReinitTenant(setup);
  options.reinit.background = true;
  options.reinit.rebuild_override = [gate, reference, returned](
                                        const Dataset&, double) {
    gate->ParkUntilOpened();
    if (returned != nullptr) returned->store(true);
    return reference->Clone();
  };
  return options;
}

// Feeds phase-1 queries with garbage served estimates until the trigger
// parks the builder on `gate`. Returns how many items were fed.
size_t ForceTrigger(const DriftSetup& setup, ServiceFleet& fleet,
                    BuilderGate& gate) {
  setup.oracle->SetPhase(1);
  size_t fed = 0;
  for (const Box& q : setup.schedule.phase(1).queries) {
    (void)fleet.SubmitFeedback(kTenant, q, 1e7);
    ++fed;
    if (gate.entered()) break;
  }
  EXPECT_TRUE(gate.WaitUntilEntered())
      << "the trigger never started a background rebuild";
  return fed;
}

// An unusable re-init config is a caller error the fleet reports with a
// Status, never an abort: no domain, or detector, reservoir or MineClus
// knobs that Validate rejects.
TEST(ReinitServiceTest, AddTenantRejectsInvalidReinitConfig) {
  DriftSetup setup = MakeDriftSetup();
  ServiceFleet fleet;
  auto add = [&](const TenantOptions& options) {
    return fleet
        .AddTenant(kTenant, TrainOnPhase(setup, 0, 20), *setup.oracle,
                   options)
        .code();
  };
  TenantOptions no_domain = ReinitTenant(setup);
  no_domain.reinit.domain = Box();
  EXPECT_EQ(add(no_domain), StatusCode::kInvalidArgument);
  TenantOptions bad_detector = ReinitTenant(setup);
  bad_detector.reinit.detector.window = 0;
  EXPECT_EQ(add(bad_detector), StatusCode::kInvalidArgument);
  TenantOptions bad_hysteresis = ReinitTenant(setup);
  bad_hysteresis.reinit.detector.rearm_nae =
      bad_hysteresis.reinit.detector.trigger_nae;
  EXPECT_EQ(add(bad_hysteresis), StatusCode::kInvalidArgument);
  TenantOptions bad_reservoir = ReinitTenant(setup);
  bad_reservoir.reinit.reservoir.capacity = 0;
  EXPECT_EQ(add(bad_reservoir), StatusCode::kInvalidArgument);
  TenantOptions bad_mineclus = ReinitTenant(setup);
  bad_mineclus.reinit.mineclus.alpha = 5.0;
  EXPECT_EQ(add(bad_mineclus), StatusCode::kInvalidArgument);
  EXPECT_FALSE(fleet.HasTenant(kTenant)) << "no rejected tenant was added";

  // The same bad knobs are ignored while re-init is off.
  TenantOptions disabled = bad_reservoir;
  disabled.reinit.enabled = false;
  EXPECT_EQ(add(disabled), StatusCode::kOk);
}

// The acceptance loop: drift degrades the served estimates past the trigger,
// the detector fires, the rebuild swaps in, and the post-swap rolling NAE
// falls back below the trigger threshold.
TEST(ReinitServiceTest, TriggerSwapAndRecoveryUnderDrift) {
  DriftSetup setup = MakeDriftSetup();
  TenantOptions options = ReinitTenant(setup);
  // Rebuild hook: a histogram trained on the drifted phase stands in for the
  // MineClus pipeline, so recovery depends only on the swap plumbing.
  std::unique_ptr<STHoles> reference = TrainOnPhase(setup, 1, 40);
  const STHoles* reference_raw = reference.get();
  options.reinit.rebuild_override = [reference_raw](const Dataset& sample,
                                                    double total) {
    EXPECT_GT(sample.size(), 0u) << "the reservoir must feed the rebuild";
    EXPECT_GT(total, 0.0);
    return reference_raw->Clone();
  };

  RunResult result = ServePhaseOne(setup, options);
  EXPECT_GE(result.stats.reinit_triggers, 1u);
  EXPECT_GE(result.stats.reinit_swaps_completed, 1u);
  EXPECT_EQ(result.stats.reinit_swaps_aborted, 0u);
  EXPECT_LT(result.stats.rolling_nae, options.reinit.detector.trigger_nae)
      << "post-swap serving quality must recover below the trigger";
  EXPECT_EQ(result.stats.feedback_applied, result.stats.feedback_accepted);
}

// Same loop, run twice: synchronous mode is bitwise deterministic end to end
// (trigger counts, swap counts, and every final estimate).
TEST(ReinitServiceTest, SynchronousModeIsRunTwiceDeterministic) {
  DriftSetup setup = MakeDriftSetup();
  TenantOptions options = ReinitTenant(setup);

  RunResult a = ServePhaseOne(setup, options);
  RunResult b = ServePhaseOne(setup, options);
  ExpectBitIdentical(a, b);
}

// Drift recovery is per tenant: a re-init tenant and a plain neighbour share
// one fleet. The re-init tenant's trigger/swap counts and final snapshot are
// bit-identical at 1 and 4 refiners, and the neighbour — whose oracle never
// drifts — ends exactly where a serial replay of its stream does.
TEST(ReinitServiceTest, DriftRecoveryIsPerTenantAndRefinerCountInvariant) {
  DriftSetup setup = MakeDriftSetup();
  const DriftPhase& home = setup.schedule.phase(0);
  Executor neighbour_oracle(home.data.data);
  const Workload& drifted = setup.schedule.phase(1).queries;
  const std::string neighbour = "neighbour";
  auto neighbour_histogram = [&] {
    STHolesConfig config;
    config.max_buckets = 30;
    return std::make_unique<STHoles>(
        setup.schedule.domain(), static_cast<double>(home.data.data.size()),
        config);
  };

  auto run = [&](size_t refiners) {
    std::unique_ptr<ServiceFleet> fleet =
        DriftingFleet(setup, ReinitTenant(setup), refiners);
    EXPECT_TRUE(fleet
                    ->AddTenant(neighbour, neighbour_histogram(),
                                neighbour_oracle)
                    .ok());
    setup.oracle->SetPhase(1);
    for (size_t i = 0; i < drifted.size(); ++i) {
      const double est = *fleet->Estimate(kTenant, drifted[i]);
      EXPECT_TRUE(fleet->SubmitFeedback(kTenant, drifted[i], est).ok());
      EXPECT_TRUE(fleet->SubmitFeedback(neighbour, home.queries[i]).ok());
      EXPECT_TRUE(fleet->Drain().ok());
    }
    fleet->Stop();
    return std::make_pair(Collect(*fleet, kTenant, drifted),
                          Collect(*fleet, neighbour, home.queries));
  };

  const auto [reinit1, neighbour1] = run(1);
  const auto [reinit4, neighbour4] = run(4);
  EXPECT_GE(reinit1.stats.reinit_triggers, 1u);
  EXPECT_GE(reinit1.stats.reinit_swaps_completed, 1u);
  ExpectBitIdentical(reinit1, reinit4);
  EXPECT_EQ(neighbour1.stats.reinit_triggers, 0u)
      << "the neighbour has no drift loop";

  std::unique_ptr<STHoles> replay = neighbour_histogram();
  for (size_t i = 0; i < drifted.size(); ++i) {
    replay->Refine(home.queries[i], neighbour_oracle);
  }
  for (size_t i = 0; i < home.queries.size(); ++i) {
    const double expected = replay->Estimate(home.queries[i]);
    EXPECT_TRUE(BitEqual(neighbour1.final_estimates[i], expected))
        << "1-refiner neighbour diverged from its serial replay, probe " << i;
    EXPECT_TRUE(BitEqual(neighbour4.final_estimates[i], expected))
        << "4-refiner neighbour diverged from its serial replay, probe " << i;
  }
}

// The real rebuild path (reservoir -> MineClus -> initializer) completes a
// swap and leaves a servable histogram.
TEST(ReinitServiceTest, MineClusRebuildPathSwapsInAServableHistogram) {
  DriftSetup setup = MakeDriftSetup();
  TenantOptions options = ReinitTenant(setup);
  options.reinit.max_buckets = 40;
  options.reinit.reservoir.age_interval = 64;  // Wash out phase 0 fast.

  RunResult result = ServePhaseOne(setup, options);
  EXPECT_GE(result.stats.reinit_triggers, 1u);
  EXPECT_GE(result.stats.reinit_swaps_completed, 1u);
  EXPECT_EQ(result.stats.reinit_swaps_aborted, 0u);
  EXPECT_GT(result.stats.reservoir_size, 0u);
  for (double est : result.final_estimates) {
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_GE(est, 0.0);
  }
}

// A rebuild that fails (override returns null) aborts the swap: the
// incumbent keeps serving, swaps_aborted increments, and feedback keeps
// applying afterwards.
TEST(ReinitServiceTest, FailedRebuildDegradesToTheIncumbent) {
  DriftSetup setup = MakeDriftSetup();
  TenantOptions options = ReinitTenant(setup);
  size_t rebuild_calls = 0;
  options.reinit.rebuild_override = [&rebuild_calls](const Dataset&, double) {
    ++rebuild_calls;
    return std::unique_ptr<Histogram>();
  };

  RunResult result = ServePhaseOne(setup, options);
  EXPECT_GE(rebuild_calls, 1u);
  EXPECT_GE(result.stats.reinit_triggers, 1u);
  EXPECT_EQ(result.stats.reinit_swaps_completed, 0u);
  EXPECT_GE(result.stats.reinit_swaps_aborted, 1u);
  EXPECT_EQ(result.stats.reinit_swaps_aborted, result.stats.reinit_triggers)
      << "every failed rebuild must be accounted as an abort";
  EXPECT_EQ(result.stats.feedback_applied, result.stats.feedback_accepted)
      << "refinement continues on the incumbent after an abort";
  for (double est : result.final_estimates) {
    EXPECT_TRUE(std::isfinite(est));
  }
}

// Full-rate fault injection on the rebuild oracle corrupts the domain total
// (the rotation's first faults are NaN-adjacent/negative), which the rebuild
// rejects deterministically: abort, incumbent serving.
TEST(ReinitServiceTest, FaultedRebuildOracleAbortsTheSwap) {
  DriftSetup setup = MakeDriftSetup();
  TenantOptions options = ReinitTenant(setup);
  options.reinit.rebuild_faults.rate = 1.0;
  options.reinit.rebuild_faults.seed = 5;

  RunResult result = ServePhaseOne(setup, options);
  EXPECT_GE(result.stats.reinit_triggers, 1u);
  EXPECT_EQ(result.stats.reinit_swaps_completed, 0u);
  EXPECT_GE(result.stats.reinit_swaps_aborted, 1u);
  for (double est : result.final_estimates) {
    EXPECT_TRUE(std::isfinite(est));
  }
}

// Submitting feedback without a captured estimate (the NaN default) must not
// starve the detector: the tenant samples its own snapshot at submit time.
TEST(ReinitServiceTest, DefaultSubmitSamplesTheServedSnapshot) {
  DriftSetup setup = MakeDriftSetup();
  std::unique_ptr<ServiceFleet> fleet =
      DriftingFleet(setup, ReinitTenant(setup));
  EXPECT_TRUE(std::isnan(fleet->tenant_stats(kTenant)->rolling_nae))
      << "no observation yet";
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_EQ(*fleet->SubmitFeedback(kTenant,
                                     setup.schedule.phase(0).queries[i]),
              FleetFeedbackOutcome::kAccepted);
  }
  ASSERT_TRUE(fleet->Drain().ok());
  EXPECT_TRUE(std::isfinite(fleet->tenant_stats(kTenant)->rolling_nae))
      << "the detector observed nothing";
  fleet->Stop();
}

// Liveness during a background rebuild: with the builder parked inside the
// rebuild hook, reads and refinement both make progress, and Drain does not
// hang. This is the "hot swap never blocks readers" contract. Opening the
// gate swaps the rebuild in through a pool run the finished builder
// schedules — nothing polls for it, and no further feedback is needed.
TEST(ReinitServiceTest, ReadsAndRefinementProgressDuringBackgroundRebuild) {
  DriftSetup setup = MakeDriftSetup();
  BuilderGate gate;
  // A valid rebuild result, prepared up front (a root-only histogram would
  // be rejected by the validation gate as no better than trivial).
  std::unique_ptr<STHoles> reference = TrainOnPhase(setup, 1, 40);
  std::unique_ptr<ServiceFleet> fleet = DriftingFleet(
      setup, ParkedRebuildTenant(setup, &gate, reference.get()));
  const Workload& queries = setup.schedule.phase(1).queries;
  const size_t fed = ForceTrigger(setup, *fleet, gate);

  // Rebuild in flight, builder parked. Reads must serve...
  const size_t reads_before = fleet->stats().reads_served;
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(
        std::isfinite(*fleet->Estimate(kTenant, queries[i % queries.size()])));
  }
  EXPECT_GE(fleet->stats().reads_served, reads_before + 2000);
  // ...refinement must keep applying (Drain returns, not hangs)...
  for (size_t i = 0; i < 32; ++i) {
    (void)fleet->SubmitFeedback(kTenant, queries[(fed + i) % queries.size()],
                                1e7);
  }
  ASSERT_TRUE(fleet->Drain().ok())
      << "Drain must not be held hostage by an in-flight rebuild";
  TenantStats mid = *fleet->tenant_stats(kTenant);
  EXPECT_EQ(mid.reinit_swaps_completed, 0u) << "builder is still parked";
  EXPECT_GE(mid.reinit_triggers, 1u);
  const size_t publishes_before = fleet->stats().publishes;

  // ...and releasing the builder completes the swap on an idle queue: the
  // builder's ScheduleShard hands it to a pool worker, which publishes it.
  gate.Open();
  for (int spin = 0; spin < 10000; ++spin) {
    if (fleet->tenant_stats(kTenant)->reinit_swaps_completed > 0 &&
        fleet->stats().publishes > publishes_before) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fleet->tenant_stats(kTenant)->reinit_swaps_completed, 1u)
      << "a finished rebuild must swap in without further feedback";
  EXPECT_GT(fleet->stats().publishes, publishes_before)
      << "the swap must be published to readers";
  fleet->Stop();
  TenantStats final_stats = *fleet->tenant_stats(kTenant);
  EXPECT_EQ(final_stats.reinit_swaps_completed, 1u);
  EXPECT_EQ(final_stats.reinit_swaps_aborted, 0u);
  EXPECT_TRUE(std::isfinite(*fleet->Estimate(kTenant, queries.front())));
}

// Destructor vs. in-flight background rebuild: destroying the fleet while
// the builder thread is parked inside the rebuild hook must join the builder
// cleanly — Stop waits for it, and the pool run it schedules completes the
// swap (replaying the rebuild window) instead of leaking or detaching the
// thread. The gate opens from a separate thread only after destruction has
// begun, so the destructor is provably the one waiting. Runs under the TSan
// leg.
TEST(ReinitServiceTest, DestructorJoinsParkedBackgroundBuilder) {
  DriftSetup setup = MakeDriftSetup();
  BuilderGate gate;
  std::atomic<bool> builder_returned{false};
  std::unique_ptr<STHoles> reference = TrainOnPhase(setup, 1, 40);
  std::unique_ptr<ServiceFleet> fleet = DriftingFleet(
      setup, ParkedRebuildTenant(setup, &gate, reference.get(),
                                 &builder_returned));
  ForceTrigger(setup, *fleet, gate);
  // Nothing left to flush: the destructor goes straight to the builder.
  ASSERT_TRUE(fleet->Drain().ok());

  // Open the gate only after the destructor has had time to reach the
  // builder wait; the fleet must sit blocked until then, not crash or
  // return with the builder still running.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.Open();
  });

  EXPECT_EQ(fleet->tenant_stats(kTenant)->reinit_swaps_completed, 0u)
      << "builder is parked";
  fleet.reset();  // ~ServiceFleet -> Stop -> waits out the builder.
  EXPECT_TRUE(builder_returned.load())
      << "destructor returned while the builder was still inside the hook";
  releaser.join();
}

// A removed tenant's parked builder is still the fleet's to join: removal
// drops the tenant from the map, but destroying the fleet must wait for the
// builder (which holds the shard alive) rather than leak the thread.
TEST(ReinitServiceTest, RemovedTenantBuilderDoesNotOutliveTheFleet) {
  DriftSetup setup = MakeDriftSetup();
  BuilderGate gate;
  std::atomic<bool> builder_returned{false};
  std::unique_ptr<STHoles> reference = TrainOnPhase(setup, 1, 40);
  std::unique_ptr<ServiceFleet> fleet = DriftingFleet(
      setup, ParkedRebuildTenant(setup, &gate, reference.get(),
                                 &builder_returned));
  ForceTrigger(setup, *fleet, gate);
  ASSERT_TRUE(fleet->Drain().ok());
  ASSERT_TRUE(fleet->RemoveTenant(kTenant).ok());
  EXPECT_FALSE(fleet->HasTenant(kTenant));

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.Open();
  });
  fleet.reset();
  EXPECT_TRUE(builder_returned.load())
      << "destructor returned while a removed tenant's builder was running";
  releaser.join();
}

}  // namespace
}  // namespace sthist
