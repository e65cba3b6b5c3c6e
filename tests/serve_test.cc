// Concurrency battery for the serving cell (serve/service_fleet.h) driven
// the way serve-sim drives it: one tenant, one refiner. The heavyweight test
// runs 8 reader threads against a live refiner for >10k reads — the
// structural race detector for the TSan CI job — and then holds the cell to
// the determinism contract: after draining, the published snapshot's
// estimates are bitwise-identical (std::bit_cast) to a single-threaded
// replay of the identical feedback sequence.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/bounded_queue.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "histogram/stholes.h"
#include "serve/service_fleet.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

struct ServeSetup {
  GeneratedData g;
  std::unique_ptr<Executor> executor;
  Workload train;
  Workload probes;
};

ServeSetup MakeSetup(size_t tuples_per_cluster, size_t train_queries,
                     size_t probe_queries) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = tuples_per_cluster;
  data_config.noise_tuples = tuples_per_cluster / 5;
  ServeSetup setup{MakeCross(data_config), {}, {}, {}};
  setup.executor = std::make_unique<Executor>(setup.g.data);

  WorkloadConfig wc;
  wc.num_queries = train_queries;
  wc.volume_fraction = 0.01;
  wc.seed = 31;
  setup.train = MakeWorkload(setup.g.domain, wc);
  wc.num_queries = probe_queries;
  wc.seed = 97;
  setup.probes = MakeWorkload(setup.g.domain, wc);
  return setup;
}

std::unique_ptr<STHoles> MakeHistogram(const ServeSetup& setup,
                                       size_t buckets) {
  STHolesConfig config;
  config.max_buckets = buckets;
  return std::make_unique<STHoles>(
      setup.g.domain, static_cast<double>(setup.g.data.size()), config);
}

// Replays `feedback` serially onto a fresh histogram and asserts the
// cell's final snapshot matches it bit for bit over the probe workload.
void ExpectBitwiseReplayMatch(const ServeSetup& setup, size_t buckets,
                              const std::vector<Box>& feedback,
                              const Histogram& snapshot) {
  std::unique_ptr<STHoles> replay = MakeHistogram(setup, buckets);
  for (const Box& q : feedback) replay->Refine(q, *setup.executor);
  for (const Box& probe : setup.probes) {
    double expected = replay->EstimateLinear(probe);
    EXPECT_TRUE(BitEqual(snapshot.EstimateLinear(probe), expected))
        << "linear estimate diverged on " << probe.ToString();
    EXPECT_TRUE(BitEqual(snapshot.Estimate(probe), expected))
        << "indexed estimate diverged on " << probe.ToString();
  }
}

constexpr char kTenant[] = "serve";

// The serving cell's shape: one refiner, a 4096-item queue, 64-item publish
// batches.
FleetConfig CellConfig() {
  FleetConfig config;
  config.refiners = 1;
  config.queue_capacity = 4096;
  return config;
}

// A fleet serving `hist` as its only tenant.
std::unique_ptr<ServiceFleet> OneTenant(std::unique_ptr<Histogram> hist,
                                        const CardinalityOracle& oracle,
                                        const FleetConfig& config =
                                            CellConfig()) {
  auto fleet = std::make_unique<ServiceFleet>(config);
  EXPECT_TRUE(fleet->AddTenant(kTenant, std::move(hist), oracle).ok());
  return fleet;
}

FleetFeedbackOutcome Submit(ServiceFleet& fleet, const Box& query) {
  StatusOr<FleetFeedbackOutcome> outcome = fleet.SubmitFeedback(kTenant, query);
  EXPECT_TRUE(outcome.ok());
  return outcome.ok() ? *outcome : FleetFeedbackOutcome::kStopped;
}

size_t Staleness(const ServiceFleet& fleet) {
  return fleet.tenant_stats(kTenant)->staleness;
}

TEST(ServeTest, InitialSnapshotServesTheSeededHistogram) {
  ServeSetup setup = MakeSetup(800, 20, 30);
  std::unique_ptr<STHoles> hist = MakeHistogram(setup, 30);
  Train(hist.get(), setup.train, *setup.executor);
  // Reference estimates before the fleet takes ownership.
  std::vector<double> expected;
  for (const Box& probe : setup.probes) {
    expected.push_back(hist->Estimate(probe));
  }

  std::unique_ptr<ServiceFleet> fleet =
      OneTenant(std::move(hist), *setup.executor);
  for (size_t i = 0; i < setup.probes.size(); ++i) {
    EXPECT_TRUE(
        BitEqual(*fleet->Estimate(kTenant, setup.probes[i]), expected[i]));
  }
  FleetStats stats = fleet->stats();
  EXPECT_EQ(stats.reads_served, setup.probes.size());
  EXPECT_EQ(stats.publishes, 0u);
  EXPECT_EQ(stats.feedback_accepted, 0u);
  EXPECT_EQ(Staleness(*fleet), 0u);
}

TEST(ServeTest, DrainMakesEveryAcceptedFeedbackVisible) {
  ServeSetup setup = MakeSetup(800, 60, 30);
  std::unique_ptr<ServiceFleet> fleet =
      OneTenant(MakeHistogram(setup, 40), *setup.executor);

  std::vector<Box> accepted;
  for (const Box& q : setup.train) {
    if (Submit(*fleet, q) == FleetFeedbackOutcome::kAccepted) {
      accepted.push_back(q);
    }
  }
  EXPECT_TRUE(fleet->Drain().ok());

  FleetStats stats = fleet->stats();
  EXPECT_EQ(stats.feedback_accepted, accepted.size());
  EXPECT_EQ(stats.feedback_applied, accepted.size());
  EXPECT_EQ(Staleness(*fleet), 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GT(stats.publishes, 0u);

  ExpectBitwiseReplayMatch(setup, 40, accepted, *fleet->Snapshot(kTenant));
}

TEST(ServeTest, PublishCadenceNeverChangesTheDrainedSnapshot) {
  ServeSetup setup = MakeSetup(600, 50, 25);
  for (size_t publish_batch : {1u, 7u, 64u}) {
    FleetConfig config = CellConfig();
    config.publish_batch = publish_batch;
    std::unique_ptr<ServiceFleet> fleet =
        OneTenant(MakeHistogram(setup, 30), *setup.executor, config);
    std::vector<Box> accepted;
    for (const Box& q : setup.train) {
      if (Submit(*fleet, q) == FleetFeedbackOutcome::kAccepted) {
        accepted.push_back(q);
      }
    }
    fleet->Stop();
    ExpectBitwiseReplayMatch(setup, 30, accepted, *fleet->Snapshot(kTenant));
  }
}

TEST(ServeTest, StopShedsLateFeedbackAndKeepsServing) {
  ServeSetup setup = MakeSetup(600, 20, 20);
  std::unique_ptr<ServiceFleet> fleet =
      OneTenant(MakeHistogram(setup, 30), *setup.executor);
  for (const Box& q : setup.train) Submit(*fleet, q);
  fleet->Stop();
  fleet->Stop();  // Idempotent.

  EXPECT_EQ(Submit(*fleet, setup.train.front()),
            FleetFeedbackOutcome::kStopped);
  EXPECT_GE(fleet->stats().feedback_dropped(), 1u);
  EXPECT_GE(fleet->stats().feedback_dropped_stopped, 1u);
  // A drain on the stopped fleet must not hang: the horizon was published
  // by Stop, so it reports OK immediately.
  EXPECT_TRUE(fleet->Drain().ok());
  // The final snapshot still answers.
  StatusOr<double> est = fleet->Estimate(kTenant, setup.probes.front());
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(std::isfinite(*est));
}

// A feedback oracle that parks the refiner inside its first Count call until
// released, making queue-full backpressure deterministic to provoke.
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
  // One-shot latch, openable/awaitable from any thread.
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

TEST(ServeTest, FullQueueShedsFeedbackInsteadOfBlocking) {
  ServeSetup setup = MakeSetup(400, 20, 10);
  GateOracle gate(*setup.executor);

  FleetConfig config = CellConfig();
  config.queue_capacity = 4;
  std::unique_ptr<ServiceFleet> fleet =
      OneTenant(MakeHistogram(setup, 20), gate, config);

  // First item: the refiner pops it and parks inside the gated oracle.
  ASSERT_EQ(Submit(*fleet, setup.train[0]), FleetFeedbackOutcome::kAccepted);
  gate.WaitUntilEntered();

  // Now the queue fills to capacity, then sheds.
  size_t accepted = 0, shed = 0;
  for (size_t i = 0; i < 8; ++i) {
    FleetFeedbackOutcome outcome =
        Submit(*fleet, setup.train[i % setup.train.size()]);
    if (outcome == FleetFeedbackOutcome::kAccepted) {
      ++accepted;
    } else {
      EXPECT_EQ(outcome, FleetFeedbackOutcome::kQueueFull)
          << "a live cell sheds only on backpressure";
      ++shed;
    }
  }
  EXPECT_EQ(accepted, config.queue_capacity);
  EXPECT_EQ(shed, 8 - config.queue_capacity);
  EXPECT_EQ(fleet->stats().feedback_dropped(), shed);
  EXPECT_EQ(fleet->stats().feedback_dropped_full, shed);

  gate.Release();
  fleet->Stop();
  EXPECT_EQ(fleet->stats().feedback_applied, accepted + 1);
}

// The battery's centerpiece: 8 reader threads hammer the snapshot while the
// refiner folds in live feedback. Every read must be finite and internally
// consistent — the indexed estimate bitwise-equal to the linear scan on the
// *same* snapshot — and the drained end state must equal the serial replay.
TEST(ServeTest, ConcurrentReadersSeeConsistentSnapshots) {
  constexpr size_t kReaders = 8;
  constexpr size_t kReadsPerReader = 1500;  // > 10k reads in total.
  constexpr size_t kBuckets = 40;

  ServeSetup setup = MakeSetup(800, 250, 40);
  std::unique_ptr<ServiceFleet> fleet =
      OneTenant(MakeHistogram(setup, kBuckets), *setup.executor);

  std::atomic<bool> start{false};
  std::atomic<size_t> inconsistent{0};
  std::atomic<size_t> nonfinite{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!start.load()) std::this_thread::yield();
      for (size_t i = 0; i < kReadsPerReader; ++i) {
        const Box& q = setup.probes[(r + i) % setup.probes.size()];
        // Pin one snapshot: both paths must agree on it bit for bit even
        // while newer epochs are being published underneath.
        std::shared_ptr<const Histogram> snap = fleet->Snapshot(kTenant);
        double indexed = snap->Estimate(q);
        double linear = snap->EstimateLinear(q);
        if (!std::isfinite(indexed) || !std::isfinite(linear)) {
          nonfinite.fetch_add(1);
        }
        if (!BitEqual(indexed, linear)) inconsistent.fetch_add(1);
      }
    });
  }

  start.store(true);
  // Feed the refiner from this thread while the readers run; the single
  // producer makes the accepted sequence the submission order.
  std::vector<Box> accepted;
  for (const Box& q : setup.train) {
    if (Submit(*fleet, q) == FleetFeedbackOutcome::kAccepted) {
      accepted.push_back(q);
    }
  }
  for (std::thread& t : readers) t.join();
  fleet->Stop();

  EXPECT_EQ(nonfinite.load(), 0u);
  EXPECT_EQ(inconsistent.load(), 0u);

  EXPECT_EQ(fleet->stats().feedback_applied, accepted.size());
  EXPECT_EQ(Staleness(*fleet), 0u);

  ExpectBitwiseReplayMatch(setup, kBuckets, accepted,
                           *fleet->Snapshot(kTenant));
}

TEST(BoundedQueueTest, PushPopAndCloseSemantics) {
  BoundedQueue<int> queue(3);
  std::vector<int> batch;
  EXPECT_EQ(queue.TryPopBatch(&batch, 2), 0u) << "empty queue never blocks";
  EXPECT_EQ(queue.TryPush(1), PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(2), PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(3), PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(4), PushResult::kFull) << "capacity reached";
  EXPECT_EQ(queue.size(), 3u);

  EXPECT_EQ(queue.TryPopBatch(&batch, 2), 2u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.TryPush(4), PushResult::kAccepted);

  queue.Close();
  EXPECT_EQ(queue.TryPush(5), PushResult::kClosed)
      << "closed queue refuses items";
  EXPECT_EQ(queue.TryPopBatch(&batch, 10), 2u) << "drains the remainder";
  EXPECT_EQ(batch, (std::vector<int>{3, 4}));
  EXPECT_EQ(queue.TryPopBatch(&batch, 10), 0u) << "closed and drained";
}

TEST(BoundedQueueTest, ManyProducersOneConsumerLosesNothing) {
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 2000;
  BoundedQueue<size_t> queue(64);

  std::atomic<size_t> accepted{0};
  std::atomic<bool> producers_done{false};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        if (queue.TryPush(p * kPerProducer + i) == PushResult::kAccepted) {
          accepted.fetch_add(1);
        }
      }
    });
  }

  // A polling consumer, like a pool worker: it stops only once the
  // producers are done and a pop after that finds the queue empty.
  size_t consumed = 0;
  std::thread consumer([&] {
    std::vector<size_t> batch;
    for (;;) {
      const bool done = producers_done.load();
      const size_t n = queue.TryPopBatch(&batch, 32);
      consumed += n;
      if (n == 0) {
        if (done) break;
        std::this_thread::yield();
      }
    }
  });

  for (std::thread& t : producers) t.join();
  producers_done.store(true);
  consumer.join();
  EXPECT_EQ(consumed, accepted.load());
}

}  // namespace
}  // namespace sthist
