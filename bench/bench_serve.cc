// Serving-layer throughput harness: read throughput vs reader-thread count
// on one serving cell (a one-tenant ServiceFleet with one refiner), with the
// refiner idle and with it live under a saturating feedback stream.
// The number that matters is the ratio per row: snapshot isolation means a
// publishing refiner costs readers almost nothing (readers never take the
// writer's locks — they only swap shared_ptr refcounts), so throughput keeps
// scaling with reader threads while refinement runs.
//
// Exits non-zero if a read ever blocks long enough to suggest reader/writer
// coupling (concurrent-refinement throughput collapsing far below idle
// throughput at the same thread count).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/generators.h"
#include "eval/table.h"
#include "histogram/stholes.h"
#include "serve/service_fleet.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist::bench {
namespace {

struct ServeBenchSetup {
  GeneratedData g;
  std::unique_ptr<Executor> executor;
  Workload feedback;
  Workload probes;
};

ServeBenchSetup MakeServeSetup(const Scale& scale, uint64_t seed_offset) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = scale.full ? 10000 : 3000;
  data_config.noise_tuples = data_config.tuples_per_cluster / 5;
  ServeBenchSetup setup{MakeCross(data_config), {}, {}, {}};
  setup.executor = std::make_unique<Executor>(setup.g.data);

  WorkloadConfig wc;
  wc.num_queries = scale.full ? 1000 : 300;
  wc.volume_fraction = 0.01;
  wc.seed = 31 + seed_offset;
  setup.feedback = MakeWorkload(setup.g.domain, wc);
  wc.num_queries = 256;
  wc.seed = 97 + seed_offset;
  setup.probes = MakeWorkload(setup.g.domain, wc);
  return setup;
}

std::unique_ptr<STHoles> MakeTrainedHistogram(const ServeBenchSetup& setup,
                                              size_t buckets) {
  STHolesConfig config;
  config.max_buckets = buckets;
  auto hist = std::make_unique<STHoles>(
      setup.g.domain, static_cast<double>(setup.g.data.size()), config);
  // Pre-train so the served snapshot has a realistic bucket tree.
  for (const Box& q : setup.feedback) hist->Refine(q, *setup.executor);
  return hist;
}

constexpr char kTenant[] = "serve";

// The serving cell: `hist` as the only tenant of a one-refiner fleet with a
// 4096-item queue, recording into `registry`.
std::unique_ptr<ServiceFleet> OneTenant(std::unique_ptr<Histogram> hist,
                                        const CardinalityOracle& oracle,
                                        obs::MetricsRegistry* registry,
                                        const TenantOptions& options = {}) {
  FleetConfig config;
  config.refiners = 1;
  config.queue_capacity = 4096;
  config.metrics = registry;
  auto fleet = std::make_unique<ServiceFleet>(config);
  if (!fleet->AddTenant(kTenant, std::move(hist), oracle, options).ok()) {
    std::fprintf(stderr, "FAIL: could not add the serving tenant\n");
    std::exit(EXIT_FAILURE);
  }
  return fleet;
}

// The fleet's publish-latency histogram in `registry`.
obs::MetricsSnapshot::LatencyValue PublishLatency(
    const obs::MetricsRegistry& registry) {
  for (const auto& latency : registry.Snapshot().latencies) {
    if (latency.name == "serve.fleet.publish_seconds") return latency;
  }
  return {};
}

using Window = std::chrono::milliseconds;

// Closed-loop readers on the serving tenant: `readers` threads issue
// estimates from when `start` flips until `window` has passed by the clock.
// Returns the reads per second of wall time.
double TimeReads(const ServiceFleet& fleet, const Workload& probes,
                 size_t readers, Window window, std::atomic<bool>& start) {
  std::vector<std::thread> threads;
  threads.reserve(readers);
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::atomic<double> sink{0.0};  // Defeats dead-code elimination.
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      while (!start.load()) std::this_thread::yield();
      double local = 0.0;
      size_t i = 0;
      for (; !stop.load(std::memory_order_relaxed); ++i) {
        local += *fleet.Estimate(kTenant, probes[(r + i) % probes.size()]);
      }
      reads.fetch_add(i);
      sink.fetch_add(local);
    });
  }
  auto t0 = std::chrono::steady_clock::now();
  start.store(true);
  std::this_thread::sleep_for(window);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(reads.load()) / seconds;
}

// A feeder thread that keeps the serving tenant's queue saturated from when
// `start` flips until `stop` does, submitting `served_estimate` with each
// item.
std::thread StartFeeder(ServiceFleet& fleet, const Workload& feedback,
                        std::atomic<bool>& start, std::atomic<bool>& stop,
                        double served_estimate =
                            std::numeric_limits<double>::quiet_NaN()) {
  return std::thread([&, served_estimate] {
    while (!start.load()) std::this_thread::yield();
    size_t i = 0;
    while (!stop.load()) {
      (void)fleet.SubmitFeedback(kTenant, feedback[i % feedback.size()],
                                 served_estimate);
      ++i;
    }
  });
}

struct Throughput {
  double reads_per_second = 0.0;
  size_t publishes = 0;
  size_t feedback_applied = 0;
  double max_publish_ms = 0.0;
};

// Runs `readers` threads issuing estimates against the serving tenant for
// one `window`; when `refine` is set, a feeder thread keeps the feedback
// queue saturated for the whole window. Each run records into its own
// registry, so its counters cover exactly this run.
Throughput MeasureReads(const ServeBenchSetup& setup, size_t buckets,
                        size_t readers, Window window, bool refine) {
  obs::MetricsRegistry registry;
  std::unique_ptr<ServiceFleet> fleet = OneTenant(
      MakeTrainedHistogram(setup, buckets), *setup.executor, &registry);

  std::atomic<bool> start{false};
  std::atomic<bool> stop_feeder{false};
  std::thread feeder;
  if (refine) {
    feeder = StartFeeder(*fleet, setup.feedback, start, stop_feeder);
  }
  const double reads_per_second =
      TimeReads(*fleet, setup.probes, readers, window, start);
  stop_feeder.store(true);
  if (feeder.joinable()) feeder.join();
  fleet->Stop();

  const FleetStats stats = fleet->stats();
  Throughput result;
  result.reads_per_second = reads_per_second;
  result.publishes = stats.publishes;
  result.feedback_applied = stats.feedback_applied;
  result.max_publish_ms = PublishLatency(registry).max_seconds * 1e3;
  return result;
}

// Publish latency under live load (saturating feeder + concurrent readers).
// The run records into a private registry so the publish-latency histogram
// covers exactly this run, not the rows before it.
struct PublishProfile {
  double live_rps = 0.0;
  double publish_p99_ms = 0.0;
  double publish_mean_ms = 0.0;
  size_t publishes = 0;
};

PublishProfile MeasurePublish(const ServeBenchSetup& setup, size_t buckets,
                              size_t readers, Window window) {
  obs::MetricsRegistry registry;
  std::unique_ptr<ServiceFleet> fleet = OneTenant(
      MakeTrainedHistogram(setup, buckets), *setup.executor, &registry);

  std::atomic<bool> start{false};
  std::atomic<bool> stop_feeder{false};
  std::thread feeder = StartFeeder(*fleet, setup.feedback, start, stop_feeder);
  const double reads_per_second =
      TimeReads(*fleet, setup.probes, readers, window, start);
  stop_feeder.store(true);
  feeder.join();
  fleet->Stop();

  PublishProfile profile;
  profile.live_rps = reads_per_second;
  const obs::MetricsSnapshot::LatencyValue latency = PublishLatency(registry);
  profile.publishes = latency.count;
  profile.publish_p99_ms = ApproxP99Seconds(latency) * 1e3;
  profile.publish_mean_ms =
      latency.count > 0
          ? latency.sum_seconds / static_cast<double>(latency.count) * 1e3
          : 0.0;
  return profile;
}

// Read throughput while a background re-initialization is in flight,
// relative to the live steady state at the same reader count. The builder is
// parked inside the rebuild hook (zero CPU, like a rebuild blocked on a slow
// oracle), so any throughput loss would mean readers couple to the rebuild —
// the hot-swap contract says they never do.
double MeasureRebuildWindowRatio(const ServeBenchSetup& setup, size_t buckets,
                                 size_t readers, Window window) {
  Throughput steady = MeasureReads(setup, buckets, readers, window, true);

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool builder_entered = false;
  bool release_builder = false;
  std::unique_ptr<STHoles> reference = MakeTrainedHistogram(setup, buckets);
  const STHoles* reference_raw = reference.get();

  TenantOptions options;
  ReinitConfig& reinit = options.reinit;
  reinit.enabled = true;
  reinit.domain = setup.g.domain;
  reinit.background = true;
  reinit.detector.window = 16;
  reinit.detector.trigger_nae = 0.05;
  reinit.detector.rearm_nae = 0.01;
  reinit.detector.cooldown = 64;
  reinit.detector.retrigger_backstop = 1u << 20;  // One rebuild per run.
  reinit.rebuild_override = [&](const Dataset&, double) {
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      builder_entered = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return release_builder; });
    }
    return reference_raw->Clone();
  };

  // This run records into the process-wide registry, so the artifact's
  // metrics section carries the serve.fleet.* and serve.reinit.* cells.
  std::unique_ptr<ServiceFleet> fleet =
      OneTenant(MakeTrainedHistogram(setup, buckets), *setup.executor,
                obs::GlobalMetrics(), options);

  // Garbage served estimates force the trigger as soon as the window fills.
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    size_t i = 0;
    while (!builder_entered && i < 100000) {
      lock.unlock();
      (void)fleet->SubmitFeedback(
          kTenant, setup.feedback[i % setup.feedback.size()], 1e9);
      ++i;
      lock.lock();
    }
    if (!gate_cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return builder_entered; })) {
      std::fprintf(stderr, "FAIL: stagnation trigger never fired\n");
      std::exit(EXIT_FAILURE);
    }
  }

  // Rebuild parked in flight: measure reads under the same live feedback
  // load as the steady-state row.
  std::atomic<bool> start{false};
  std::atomic<bool> stop_feeder{false};
  std::thread feeder =
      StartFeeder(*fleet, setup.feedback, start, stop_feeder, 1e9);
  const double rebuild_rps =
      TimeReads(*fleet, setup.probes, readers, window, start);
  stop_feeder.store(true);
  feeder.join();
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_builder = true;
  }
  gate_cv.notify_all();
  fleet->Stop();

  std::printf(
      "rebuild window: %.0f reads/s vs steady %.0f reads/s "
      "(%zu readers, swap %s)\n",
      rebuild_rps, steady.reads_per_second, readers,
      fleet->tenant_stats(kTenant)->reinit_swaps_completed > 0 ? "completed"
                                                               : "pending");
  return rebuild_rps / steady.reads_per_second;
}

}  // namespace
}  // namespace sthist::bench

int main(int argc, char** argv) {
  using namespace sthist;
  using namespace sthist::bench;

  BenchOptions options = ParseBenchOptions(argc, argv);
  Scale scale = GetScale(options);
  PrintBanner("Serving layer: read throughput vs reader threads", scale);

  ServeBenchSetup setup = MakeServeSetup(scale, options.seed);
  const size_t buckets = 100;
  // Every read window lasts this long by the clock, so each spans many
  // publishes whatever the machine's read speed.
  const Window window(scale.full ? 1000 : 250);

  std::printf("cross 2-d, %zu tuples, %zu-bucket STHoles, %lld ms windows\n",
              setup.g.data.size(), buckets,
              static_cast<long long>(window.count()));

  TablePrinter table({"readers", "idle refiner reads/s", "live refiner reads/s",
                      "ratio", "publishes", "feedback applied",
                      "max publish ms"});
  double worst_ratio = 1e300;
  for (size_t readers : {1u, 2u, 4u, 8u}) {
    Throughput idle = MeasureReads(setup, buckets, readers, window, false);
    Throughput live = MeasureReads(setup, buckets, readers, window, true);
    double ratio = live.reads_per_second / idle.reads_per_second;
    worst_ratio = std::min(worst_ratio, ratio);
    table.AddRow({FormatSize(readers), FormatDouble(idle.reads_per_second, 0),
                  FormatDouble(live.reads_per_second, 0),
                  FormatDouble(ratio, 2), FormatSize(live.publishes),
                  FormatSize(live.feedback_applied),
                  FormatDouble(live.max_publish_ms, 2)});
  }
  table.Print();

  const PublishProfile publish = MeasurePublish(setup, buckets, 2, window);
  std::printf(
      "publish under live load: mean %.4f ms, p99 %.4f ms, live reads "
      "%.0f/s, %zu publishes\n",
      publish.publish_mean_ms, publish.publish_p99_ms, publish.live_rps,
      publish.publishes);

  // Hot-swap liveness: read throughput with a rebuild parked in flight must
  // stay within 10% of the live steady state (the ISSUE's acceptance bound)
  // on a machine with cores to spare; tighter boxes only report.
  const double rebuild_ratio =
      MeasureRebuildWindowRatio(setup, buckets, 2, window);
  const bool many_cores = std::thread::hardware_concurrency() > 2;
  const double rebuild_floor = many_cores ? 0.9 : 0.0;

  // On a many-core box the live/idle ratio sits near 1.0 (readers never
  // touch the refiner's locks); on a single core the refiner and feeder
  // legitimately steal CPU time from readers — and COW publishing moves
  // the copy work into refinement, so the refiner's share grows with
  // publish cadence there. Flag only a collapse below what CPU sharing
  // can explain — that would mean readers are *blocking* on the writer.
  const double floor = many_cores ? 0.5 : 0.1;
  // The artifact carries the headline number plus the full metrics
  // registry (publish latency histogram, drop counters, ...).
  if (!WriteBenchArtifact(
          options, "serve",
          {{"worst_live_idle_ratio", worst_ratio},
           {"floor", floor},
           {"rebuild_window_ratio", rebuild_ratio},
           {"rebuild_floor", rebuild_floor},
           {"publish_mean_ms_cow", publish.publish_mean_ms},
           {"publish_p99_ms_cow", publish.publish_p99_ms}})) {
    return EXIT_FAILURE;
  }

  if (worst_ratio < floor) {
    std::fprintf(stderr,
                 "FAIL: concurrent refinement collapsed read throughput "
                 "(worst live/idle ratio %.2f < %.2f) — readers appear to "
                 "block on the writer\n",
                 worst_ratio, floor);
    return EXIT_FAILURE;
  }
  if (rebuild_ratio < rebuild_floor) {
    std::fprintf(stderr,
                 "FAIL: an in-flight rebuild dented read throughput "
                 "(rebuild/steady ratio %.2f < %.2f) — the hot swap "
                 "appears to block readers\n",
                 rebuild_ratio, rebuild_floor);
    return EXIT_FAILURE;
  }
  std::printf("worst live/idle ratio %.2f (floor %.2f), rebuild-window "
              "ratio %.2f (floor %.2f): readers never block on refinement "
              "or rebuilds\n",
              worst_ratio, floor, rebuild_ratio, rebuild_floor);
  return EXIT_SUCCESS;
}
