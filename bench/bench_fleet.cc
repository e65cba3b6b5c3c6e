// Fleet-layer throughput harness: N tenant histograms sharing one K-thread
// refiner pool (serve/service_fleet.h), swept over tenant counts up to 1k+
// shards. Two numbers matter per row: read throughput with the refiner pool
// live relative to idle (snapshot isolation says live refinement costs
// readers almost nothing — the shard map lookup is a shared lock never held
// across estimation, and snapshot reads are shared_ptr refcount swaps), and
// the publish-latency p99 under saturating mixed traffic.
//
// Exits non-zero on a many-core machine if the live/idle ratio at any tenant
// count collapses below the acceptance floor (0.85 — "within 15% of idle"),
// which would mean readers couple to the refiner pool.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
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

/// Shared data shapes: tenants alternate over two cross datasets, the
/// many-histograms-few-tables shape the fleet targets.
struct FleetVariant {
  explicit FleetVariant(GeneratedData generated) : g(std::move(generated)) {}
  GeneratedData g;
  std::unique_ptr<Executor> executor;
  Workload feedback;
  Workload probes;
};

struct FleetBenchSetup {
  std::vector<std::unique_ptr<FleetVariant>> variants;

  const FleetVariant& variant_of(size_t tenant) const {
    return *variants[tenant % variants.size()];
  }
};

FleetBenchSetup MakeFleetSetup(const Scale& scale, uint64_t seed_offset) {
  FleetBenchSetup setup;
  for (size_t v = 0; v < 2; ++v) {
    CrossConfig config;
    config.tuples_per_cluster = (scale.full ? 2000 : 800) - 200 * v;
    config.noise_tuples = config.tuples_per_cluster / 5;
    config.seed = 1 + v + seed_offset;
    auto variant = std::make_unique<FleetVariant>(MakeCross(config));
    variant->executor = std::make_unique<Executor>(variant->g.data);
    WorkloadConfig wc;
    wc.num_queries = 256;
    wc.volume_fraction = 0.01;
    wc.seed = 31 + v + seed_offset;
    variant->feedback = MakeWorkload(variant->g.domain, wc);
    wc.num_queries = 256;
    wc.seed = 97 + v + seed_offset;
    variant->probes = MakeWorkload(variant->g.domain, wc);
    setup.variants.push_back(std::move(variant));
  }
  return setup;
}

struct FleetRow {
  double idle_rps = 0.0;
  double live_rps = 0.0;
  size_t publishes = 0;
  size_t applied = 0;
  size_t shed = 0;
  double publish_p99_ms = 0.0;
  double publish_mean_ms = 0.0;
};

/// One tenant-count row. The fleet records into its own registry so the
/// publish-latency histogram and the counters cover exactly this row. Idle
/// is measured first (pure snapshot reads), then the same readers rerun with
/// feeder threads keeping every shard queue supplied.
FleetRow MeasureFleet(const FleetBenchSetup& setup, size_t tenants,
                      size_t readers, size_t reads_per_thread,
                      uint64_t seed) {
  obs::MetricsRegistry registry;

  FleetConfig fc;
  fc.refiners = 4;
  fc.queue_capacity = 256;
  fc.publish_batch = 16;
  fc.seed = seed;
  fc.metrics = &registry;
  ServiceFleet fleet(fc);

  std::vector<std::string> keys;
  keys.reserve(tenants);
  for (size_t t = 0; t < tenants; ++t) {
    keys.push_back("tenant_" + std::to_string(t));
    const FleetVariant& v = setup.variant_of(t);
    STHolesConfig hc;
    hc.max_buckets = 20;
    auto hist = std::make_unique<STHoles>(
        v.g.domain, static_cast<double>(v.g.data.size()), hc);
    // A light pre-train (offset per tenant) so served snapshots carry a
    // real bucket tree instead of the single root bucket.
    for (size_t i = 0; i < 8; ++i) {
      hist->Refine(v.feedback[(t + i) % v.feedback.size()], *v.executor);
    }
    if (!fleet.AddTenant(keys.back(), std::move(hist), *v.executor).ok()) {
      std::fprintf(stderr, "FAIL: AddTenant(%s)\n", keys.back().c_str());
      std::exit(EXIT_FAILURE);
    }
  }

  // Readers sweep tenant-major over the fleet, each thread phase-shifted.
  auto run_readers = [&]() -> double {
    std::atomic<bool> start{false};
    std::atomic<double> sink{0.0};  // Defeats dead-code elimination.
    std::vector<std::thread> threads;
    threads.reserve(readers);
    for (size_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        while (!start.load()) std::this_thread::yield();
        double local = 0.0;
        for (size_t i = 0; i < reads_per_thread; ++i) {
          size_t t = (r * 131 + i) % tenants;
          const Workload& probes = setup.variant_of(t).probes;
          local += *fleet.Estimate(keys[t], probes[i % probes.size()]);
        }
        sink.fetch_add(local);
      });
    }
    auto t0 = std::chrono::steady_clock::now();
    start.store(true);
    for (std::thread& t : threads) t.join();
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return static_cast<double>(readers * reads_per_thread) / seconds;
  };

  FleetRow row;
  row.idle_rps = run_readers();

  // Live: feeders keep shard queues supplied across the whole fleet while
  // the same readers rerun. Shedding on full queues is expected behavior
  // under saturation, not an error.
  std::atomic<bool> stop_feeders{false};
  std::vector<std::thread> feeders;
  for (size_t f = 0; f < 2; ++f) {
    feeders.emplace_back([&, f] {
      size_t i = 0;
      while (!stop_feeders.load()) {
        size_t t = (f * 17 + i) % tenants;
        const Workload& feedback = setup.variant_of(t).feedback;
        (void)fleet.SubmitFeedback(keys[t], feedback[i % feedback.size()]);
        ++i;
      }
    });
  }
  row.live_rps = run_readers();
  stop_feeders.store(true);
  for (std::thread& f : feeders) f.join();
  fleet.Stop();

  FleetStats stats = fleet.stats();
  row.publishes = stats.publishes;
  row.applied = stats.feedback_applied;
  row.shed = stats.feedback_dropped();
  for (const auto& latency : registry.Snapshot().latencies) {
    if (latency.name == "serve.fleet.publish_seconds") {
      row.publish_p99_ms = ApproxP99Seconds(latency) * 1e3;
      row.publish_mean_ms =
          latency.count > 0
              ? latency.sum_seconds / static_cast<double>(latency.count) * 1e3
              : 0.0;
    }
  }
  return row;
}

}  // namespace
}  // namespace sthist::bench

int main(int argc, char** argv) {
  using namespace sthist;
  using namespace sthist::bench;

  BenchOptions options = ParseBenchOptions(argc, argv);
  Scale scale = GetScale(options);
  PrintBanner("Fleet layer: read throughput vs tenant count", scale);

  FleetBenchSetup setup = MakeFleetSetup(scale, options.seed);
  const size_t readers = 4;
  const size_t reads_per_thread = scale.full ? 20000 : 4000;
  std::vector<size_t> tenant_counts = {64, 256, 1024};
  if (scale.full) tenant_counts.push_back(2048);

  std::printf("%zu data variants, 4 refiners, %zu readers x %zu reads\n",
              setup.variants.size(), readers, reads_per_thread);

  TablePrinter table({"tenants", "idle reads/s", "live reads/s", "ratio",
                      "publishes", "applied", "shed", "publish p99 ms"});
  double worst_ratio = 1e300;
  double ratio_1k = 0.0;
  double p99_1k_ms = 0.0;
  size_t publishes_1k = 0;
  // Publish latency of the mid-size (256-tenant) fleet under mixed load.
  double publish_mean_256_ms = 0.0;
  double publish_p99_256_ms = 0.0;
  for (size_t tenants : tenant_counts) {
    FleetRow row = MeasureFleet(setup, tenants, readers, reads_per_thread,
                                options.seed + tenants);
    double ratio = row.live_rps / row.idle_rps;
    worst_ratio = std::min(worst_ratio, ratio);
    if (tenants >= 1024 && ratio_1k == 0.0) {
      ratio_1k = ratio;
      p99_1k_ms = row.publish_p99_ms;
      publishes_1k = row.publishes;
    }
    if (tenants == 256) {
      publish_mean_256_ms = row.publish_mean_ms;
      publish_p99_256_ms = row.publish_p99_ms;
    }
    table.AddRow({FormatSize(tenants), FormatDouble(row.idle_rps, 0),
                  FormatDouble(row.live_rps, 0), FormatDouble(ratio, 2),
                  FormatSize(row.publishes), FormatSize(row.applied),
                  FormatSize(row.shed), FormatDouble(row.publish_p99_ms, 2)});
  }
  table.Print();

  // The ISSUE's acceptance bound: at 1k+ shards, live-refiner read
  // throughput within 15% of the idle baseline — but only where the
  // hardware can show it. On a box with cores to spare the pool runs beside
  // the readers and the ratio sits near 1.0; on 1-2 cores the feeders and
  // refiners legitimately steal reader CPU, so those machines only report.
  const bool many_cores = std::thread::hardware_concurrency() > 4;
  const double floor = many_cores ? 0.85 : 0.0;

  if (!WriteBenchArtifact(options, "fleet",
                          {{"tenants_max", static_cast<double>(
                                               tenant_counts.back())},
                           {"live_idle_ratio_1k", ratio_1k},
                           {"worst_live_idle_ratio", worst_ratio},
                           {"floor", floor},
                           {"publish_p99_ms_1k", p99_1k_ms},
                           {"publishes_1k",
                            static_cast<double>(publishes_1k)},
                           {"publish_mean_ms_cow", publish_mean_256_ms},
                           {"publish_p99_ms_cow", publish_p99_256_ms}})) {
    return EXIT_FAILURE;
  }

  if (ratio_1k < floor) {
    std::fprintf(stderr,
                 "FAIL: live refinement dented fleet read throughput at 1k "
                 "shards (live/idle ratio %.2f < %.2f) — readers appear to "
                 "couple to the refiner pool\n",
                 ratio_1k, floor);
    return EXIT_FAILURE;
  }
  std::printf("1k-shard live/idle ratio %.2f (floor %.2f), worst %.2f: "
              "readers stay decoupled from the shared refiner pool\n",
              ratio_1k, floor, worst_ratio);
  return EXIT_SUCCESS;
}
