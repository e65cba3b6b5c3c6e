// Serving-layer throughput harness: read throughput with the refiners idle
// and with them live under a saturating feedback stream, in the two shapes a
// deployment serves. One tenant (a one-refiner fleet) is swept over reader
// threads; a fleet of small tenants sharing a 4-thread refiner pool is swept
// over tenant counts up to 1k+ shards. The number that matters is the
// live/idle ratio per row: snapshot isolation means a publishing refiner
// costs readers almost nothing (a read takes the shard map's shared lock for
// the find and the snapshot load only and never touches a refiner's locks),
// so live refinement must not collapse read throughput.
//
// Every window lasts a fixed time by the clock, so each spans many publishes
// whatever the machine's read speed. Exits non-zero when a ratio falls below
// its floor on a machine with cores to spare: that would mean readers couple
// to refinement or to an in-flight rebuild.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/generators.h"
#include "eval/table.h"
#include "histogram/stholes.h"
#include "obs/metrics.h"
#include "serve/service_fleet.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist::bench {
namespace {

/// One Cross dataset with its executor (the feedback oracle), the feedback
/// stream the feeders submit and the probes the readers estimate. Held by
/// pointer: the executor refers to `g.data`.
struct Variant {
  GeneratedData g;
  std::unique_ptr<Executor> executor;
  Workload feedback;
  Workload probes;
};

std::unique_ptr<Variant> MakeVariant(const CrossConfig& data,
                                     size_t feedback_queries,
                                     uint64_t feedback_seed,
                                     uint64_t probe_seed) {
  auto v = std::make_unique<Variant>(Variant{MakeCross(data), {}, {}, {}});
  v->executor = std::make_unique<Executor>(v->g.data);
  WorkloadConfig wc;
  wc.num_queries = feedback_queries;
  wc.volume_fraction = 0.01;
  wc.seed = feedback_seed;
  v->feedback = MakeWorkload(v->g.domain, wc);
  wc.num_queries = 256;
  wc.seed = probe_seed;
  v->probes = MakeWorkload(v->g.domain, wc);
  return v;
}

/// A serving fleet and, per tenant, its key and the data it serves.
struct Served {
  std::unique_ptr<ServiceFleet> fleet;
  std::vector<std::string> keys;
  std::vector<const Variant*> data;
  /// Feeder threads a live window runs against this fleet.
  size_t feeders = 0;
};

void AddTenant(Served& served, std::string key, std::unique_ptr<Histogram> hist,
               const Variant& v, const TenantOptions& options = {}) {
  if (!served.fleet->AddTenant(key, std::move(hist), *v.executor, options)
           .ok()) {
    std::fprintf(stderr, "FAIL: AddTenant(%s)\n", key.c_str());
    std::exit(EXIT_FAILURE);
  }
  served.keys.push_back(std::move(key));
  served.data.push_back(&v);
}

/// The one-tenant serving cell: `hist` as the only tenant of a one-refiner
/// fleet with a 4096-item queue and one feeder, recording into `registry`.
Served OneTenant(std::unique_ptr<Histogram> hist, const Variant& v,
                 obs::MetricsRegistry* registry,
                 const TenantOptions& options = {}) {
  FleetConfig config;
  config.refiners = 1;
  config.queue_capacity = 4096;
  config.metrics = registry;
  Served served{std::make_unique<ServiceFleet>(config), {}, {}, 1};
  AddTenant(served, "serve", std::move(hist), v, options);
  return served;
}

/// The many-tenant shape: `tenants` 20-bucket STHoles alternating over
/// `variants` (the many-histograms-few-tables shape), sharing 4 refiners
/// with 256-item queues and 16-item publish batches, fed by two feeders.
Served ManyTenants(const std::vector<std::unique_ptr<Variant>>& variants,
                   size_t tenants, uint64_t seed,
                   obs::MetricsRegistry* registry) {
  FleetConfig config;
  config.refiners = 4;
  config.queue_capacity = 256;
  config.publish_batch = 16;
  config.seed = seed;
  config.metrics = registry;
  Served served{std::make_unique<ServiceFleet>(config), {}, {}, 2};
  for (size_t t = 0; t < tenants; ++t) {
    const Variant& v = *variants[t % variants.size()];
    STHolesConfig hc;
    hc.max_buckets = 20;
    auto hist = std::make_unique<STHoles>(
        v.g.domain, static_cast<double>(v.g.data.size()), hc);
    // A light pre-train (offset per tenant) so served snapshots carry a
    // real bucket tree instead of the single root bucket.
    for (size_t i = 0; i < 8; ++i) {
      hist->Refine(v.feedback[(t + i) % v.feedback.size()], *v.executor);
    }
    AddTenant(served, "tenant_" + std::to_string(t), std::move(hist), v);
  }
  return served;
}

using Window = std::chrono::milliseconds;

/// One clock-timed window: `readers` closed-loop threads spread over the
/// tenants (reader r starts at tenant r * 131) issue estimates until
/// `window` has passed, while `feeders` threads keep the tenants' queues
/// supplied (feeder f starts at tenant f * 17), each submitting
/// `served_estimate` with every item. Shedding on full queues is expected
/// under saturation, not an error. Returns the reads per second of wall
/// time.
double TimeReads(const Served& served, size_t readers, size_t feeders,
                 Window window,
                 double served_estimate =
                     std::numeric_limits<double>::quiet_NaN()) {
  const size_t tenants = served.keys.size();
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::atomic<double> sink{0.0};  // Defeats dead-code elimination.
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      while (!start.load()) std::this_thread::yield();
      double local = 0.0;
      size_t i = 0;
      for (; !stop.load(std::memory_order_relaxed); ++i) {
        const size_t t = (r * 131 + i) % tenants;
        const Workload& probes = served.data[t]->probes;
        local += *served.fleet->Estimate(served.keys[t],
                                         probes[(r + i) % probes.size()]);
      }
      reads.fetch_add(i);
      sink.fetch_add(local);
    });
  }
  std::vector<std::thread> feeder_threads;
  for (size_t f = 0; f < feeders; ++f) {
    feeder_threads.emplace_back([&, f] {
      while (!start.load()) std::this_thread::yield();
      for (size_t i = 0; !stop.load(); ++i) {
        const size_t t = (f * 17 + i) % tenants;
        const Workload& feedback = served.data[t]->feedback;
        (void)served.fleet->SubmitFeedback(
            served.keys[t], feedback[i % feedback.size()], served_estimate);
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  start.store(true);
  std::this_thread::sleep_for(window);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (std::thread& t : feeder_threads) t.join();
  return static_cast<double>(reads.load()) / seconds;
}

struct Row {
  double idle_rps = 0.0;
  double live_rps = 0.0;
  size_t publishes = 0;
  size_t applied = 0;
  size_t shed = 0;
  double publish_mean_ms = 0.0;
  double publish_p99_ms = 0.0;
  double publish_max_ms = 0.0;

  double ratio() const { return live_rps / idle_rps; }
};

/// One row: the fleet `serve` builds, read with its refiners idle and then
/// live. The fleet records into a registry of its own, so the counters and
/// the publish-latency histogram cover exactly this row.
Row MeasureRow(const std::function<Served(obs::MetricsRegistry*)>& serve,
               size_t readers, Window window) {
  obs::MetricsRegistry registry;
  Served served = serve(&registry);
  Row row;
  row.idle_rps = TimeReads(served, readers, 0, window);
  row.live_rps = TimeReads(served, readers, served.feeders, window);
  // Stop applies what the live window left queued before the counters
  // are read.
  served.fleet->Stop();

  const FleetStats stats = served.fleet->stats();
  row.publishes = stats.publishes;
  row.applied = stats.feedback_applied;
  row.shed = stats.feedback_dropped();
  for (const auto& latency : registry.Snapshot().latencies) {
    if (latency.name != "serve.fleet.publish_seconds") continue;
    row.publish_p99_ms = ApproxP99Seconds(latency) * 1e3;
    row.publish_max_ms = latency.max_seconds * 1e3;
    if (latency.count > 0) {
      row.publish_mean_ms =
          latency.sum_seconds / static_cast<double>(latency.count) * 1e3;
    }
  }
  return row;
}

void AddRow(TablePrinter& table, size_t tenants, size_t readers,
            const Row& row) {
  table.AddRow({FormatSize(tenants), FormatSize(readers),
                FormatDouble(row.idle_rps, 0), FormatDouble(row.live_rps, 0),
                FormatDouble(row.ratio(), 2), FormatSize(row.publishes),
                FormatSize(row.applied), FormatSize(row.shed),
                FormatDouble(row.publish_p99_ms, 2),
                FormatDouble(row.publish_max_ms, 2)});
}

/// Read throughput while a background re-initialization is in flight,
/// relative to the live steady state of the same one-tenant cell at the same
/// reader count. The builder is parked inside the rebuild hook (zero CPU,
/// like a rebuild blocked on a slow oracle), so any throughput loss would
/// mean readers couple to the rebuild — the hot-swap contract says they
/// never do.
double MeasureRebuildWindowRatio(const STHoles& trained, const Variant& v,
                                 size_t readers, Window window) {
  double steady_rps = 0.0;
  {
    obs::MetricsRegistry registry;
    Served steady = OneTenant(trained.Clone(), v, &registry);
    steady_rps = TimeReads(steady, readers, steady.feeders, window);
  }

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool builder_entered = false;
  bool release_builder = false;

  TenantOptions options;
  ReinitConfig& reinit = options.reinit;
  reinit.enabled = true;
  reinit.domain = v.g.domain;
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
    return trained.Clone();
  };

  // This run records into the process-wide registry, so the artifact's
  // metrics section carries the serve.fleet.* and serve.reinit.* cells.
  Served served =
      OneTenant(trained.Clone(), v, obs::GlobalMetrics(), options);
  ServiceFleet& fleet = *served.fleet;

  // Garbage served estimates force the trigger as soon as the window fills.
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    size_t i = 0;
    while (!builder_entered && i < 100000) {
      lock.unlock();
      (void)fleet.SubmitFeedback(served.keys[0],
                                 v.feedback[i % v.feedback.size()], 1e9);
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
  // load as the steady-state window.
  const double rebuild_rps =
      TimeReads(served, readers, served.feeders, window, 1e9);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_builder = true;
  }
  gate_cv.notify_all();
  fleet.Stop();

  std::printf(
      "rebuild window: %.0f reads/s vs steady %.0f reads/s, ratio %.2f "
      "(%zu readers, swap %s)\n",
      rebuild_rps, steady_rps, rebuild_rps / steady_rps, readers,
      fleet.tenant_stats(served.keys[0])->reinit_swaps_completed > 0
          ? "completed"
          : "pending");
  return rebuild_rps / steady_rps;
}

}  // namespace
}  // namespace sthist::bench

int main(int argc, char** argv) {
  using namespace sthist;
  using namespace sthist::bench;

  BenchOptions options = ParseBenchOptions(argc, argv);
  Scale scale = GetScale(options);
  PrintBanner("Serving layer: read throughput vs readers and tenants", scale);

  const Window window(scale.full ? 1000 : 250);

  // One tenant: a 100-bucket STHoles pre-trained on the whole feedback
  // stream, so the served snapshot has a realistic bucket tree. Every row
  // serves a clone of it.
  CrossConfig serve_data;
  serve_data.tuples_per_cluster = scale.full ? 10000 : 3000;
  serve_data.noise_tuples = serve_data.tuples_per_cluster / 5;
  const std::unique_ptr<Variant> serve =
      MakeVariant(serve_data, scale.full ? 1000 : 300, 31 + options.seed,
                  97 + options.seed);
  const size_t buckets = 100;
  STHolesConfig serve_config;
  serve_config.max_buckets = buckets;
  STHoles trained(serve->g.domain,
                  static_cast<double>(serve->g.data.size()), serve_config);
  for (const Box& q : serve->feedback) trained.Refine(q, *serve->executor);

  // Many tenants alternate over two smaller Cross datasets.
  std::vector<std::unique_ptr<Variant>> variants;
  for (uint64_t v = 0; v < 2; ++v) {
    CrossConfig data;
    data.tuples_per_cluster = (scale.full ? 2000 : 800) - 200 * v;
    data.noise_tuples = data.tuples_per_cluster / 5;
    data.seed = 1 + v + options.seed;
    variants.push_back(
        MakeVariant(data, 256, 31 + v + options.seed, 97 + v + options.seed));
  }

  std::printf("1 tenant: cross 2-d, %zu tuples, %zu-bucket STHoles; more "
              "tenants: 20-bucket STHoles over %zu cross datasets; %lld ms "
              "windows\n",
              serve->g.data.size(), buckets, variants.size(),
              static_cast<long long>(window.count()));

  TablePrinter table({"tenants", "readers", "idle reads/s", "live reads/s",
                      "ratio", "publishes", "applied", "shed",
                      "publish p99 ms", "max publish ms"});
  double worst_ratio = 1e300;
  Row publish_row;  // The 2-reader row: publish latency under live load.
  for (size_t readers : {1u, 2u, 4u, 8u}) {
    const Row row = MeasureRow(
        [&](obs::MetricsRegistry* registry) {
          return OneTenant(trained.Clone(), *serve, registry);
        },
        readers, window);
    worst_ratio = std::min(worst_ratio, row.ratio());
    if (readers == 2) publish_row = row;
    AddRow(table, 1, readers, row);
  }

  std::vector<size_t> tenant_counts = {64, 256, 1024};
  if (scale.full) tenant_counts.push_back(2048);
  const size_t fleet_readers = 4;
  double fleet_worst_ratio = 1e300;
  Row row_256;
  Row row_1k;
  for (size_t tenants : tenant_counts) {
    const Row row = MeasureRow(
        [&](obs::MetricsRegistry* registry) {
          return ManyTenants(variants, tenants, options.seed + tenants,
                             registry);
        },
        fleet_readers, window);
    fleet_worst_ratio = std::min(fleet_worst_ratio, row.ratio());
    if (tenants == 256) row_256 = row;
    if (tenants == 1024) row_1k = row;
    AddRow(table, tenants, fleet_readers, row);
  }
  table.Print();

  std::printf(
      "publish under live load (1 tenant, 2 readers): mean %.4f ms, p99 "
      "%.4f ms, live reads %.0f/s, %zu publishes\n",
      publish_row.publish_mean_ms, publish_row.publish_p99_ms,
      publish_row.live_rps, publish_row.publishes);

  const double rebuild_ratio =
      MeasureRebuildWindowRatio(trained, *serve, 2, window);

  // On a box with cores to spare the ratios sit near 1.0 (readers never
  // touch the refiners' locks); on a small box the refiners and feeders
  // legitimately steal CPU time from readers — and COW publishing moves the
  // copy work into refinement, so the refiners' share grows with publish
  // cadence there. Each floor flags only a collapse below what CPU sharing
  // can explain on the machine: that would mean readers *block* on the
  // writer. The fleet rows run 4 readers, 4 refiners and 2 feeders, so
  // their floor (live within 15% of idle at 1k shards) holds only beyond
  // 4 cores; a rebuild parked in flight must stay within 10% of the live
  // steady state.
  const unsigned cores = std::thread::hardware_concurrency();
  const double floor = cores > 2 ? 0.5 : 0.1;
  const double rebuild_floor = cores > 2 ? 0.9 : 0.0;
  const double floor_1k = cores > 4 ? 0.85 : 0.0;

  // The artifact carries the headline numbers plus the process-wide
  // registry (the rebuild-window run's serve.fleet.* and serve.reinit.*
  // cells, the training's histogram cells).
  if (!WriteBenchArtifact(
          options, "serve",
          {{"worst_live_idle_ratio", worst_ratio},
           {"floor", floor},
           {"rebuild_window_ratio", rebuild_ratio},
           {"rebuild_floor", rebuild_floor},
           {"publish_mean_ms_cow", publish_row.publish_mean_ms},
           {"publish_p99_ms_cow", publish_row.publish_p99_ms},
           {"tenants_max", static_cast<double>(tenant_counts.back())},
           {"live_idle_ratio_1k", row_1k.ratio()},
           {"fleet_worst_live_idle_ratio", fleet_worst_ratio},
           {"floor_1k", floor_1k},
           {"publish_p99_ms_1k", row_1k.publish_p99_ms},
           {"publishes_1k", static_cast<double>(row_1k.publishes)},
           {"publish_mean_ms_256", row_256.publish_mean_ms},
           {"publish_p99_ms_256", row_256.publish_p99_ms}})) {
    return EXIT_FAILURE;
  }

  bool failed = false;
  if (worst_ratio < floor) {
    std::fprintf(stderr,
                 "FAIL: concurrent refinement collapsed one tenant's read "
                 "throughput (worst live/idle ratio %.2f < %.2f) — readers "
                 "appear to block on the writer\n",
                 worst_ratio, floor);
    failed = true;
  }
  if (row_1k.ratio() < floor_1k) {
    std::fprintf(stderr,
                 "FAIL: live refinement dented fleet read throughput at 1k "
                 "shards (live/idle ratio %.2f < %.2f) — readers appear to "
                 "couple to the refiner pool\n",
                 row_1k.ratio(), floor_1k);
    failed = true;
  }
  if (rebuild_ratio < rebuild_floor) {
    std::fprintf(stderr,
                 "FAIL: an in-flight rebuild dented read throughput "
                 "(rebuild/steady ratio %.2f < %.2f) — the hot swap "
                 "appears to block readers\n",
                 rebuild_ratio, rebuild_floor);
    failed = true;
  }
  if (failed) return EXIT_FAILURE;
  std::printf("worst one-tenant live/idle ratio %.2f (floor %.2f), 1k-shard "
              "ratio %.2f (floor %.2f), rebuild-window ratio %.2f (floor "
              "%.2f): readers never block on refinement or rebuilds\n",
              worst_ratio, floor, row_1k.ratio(), floor_1k, rebuild_ratio,
              rebuild_floor);
  return EXIT_SUCCESS;
}
