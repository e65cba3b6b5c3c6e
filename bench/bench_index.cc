// Demonstrates the bucket-index payoff (DESIGN.md §10, §15): single-thread
// estimation throughput of the indexed STHoles::Estimate (served through
// the flat SoA index) versus the linear full-tree scan at 1k / 10k / 50k
// buckets. Every indexed estimate is verified bitwise against the linear
// reference before timing, so the reported speedup is for *identical*
// answers. The indexed path must hold >= 5x at 10k and at 50k buckets; those
// two speedups are what the perf-smoke CI leg gates against
// bench/baselines/BENCH_index.json.
//
// Large bucket trees are synthesized as STHB snapshots (a root over
// [0,1000]^2 holding a g x g grid of child buckets) and loaded through
// STHoles::DeserializeBinary, which is how a deployment hands a trained
// histogram to a serving replica.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_common.h"
#include "core/binfmt.h"
#include "core/box.h"
#include "core/simd.h"
#include "histogram/stholes.h"
#include "workload/workload.h"

namespace {

using namespace sthist;

// STHB snapshot (DESIGN.md §17) of a root bucket over [0,1000]^2 with a
// g x g grid of children (g*g + 1 buckets total), in pre-order. Frequencies
// vary so estimates are non-trivial.
std::string GridHistogramBlob(size_t g) {
  const double width = 1000.0 / static_cast<double>(g);
  std::string payload;
  binfmt::AppendU32(&payload, 2);  // dim
  binfmt::AppendU64(&payload, g * g + 1);
  auto append_bucket = [&payload](uint32_t depth, double x0, double x1,
                                  double y0, double y1, double frequency) {
    binfmt::AppendU32(&payload, depth);
    for (double bound : {x0, x1, y0, y1}) binfmt::AppendF64(&payload, bound);
    binfmt::AppendF64(&payload, frequency);
  };
  append_bucket(0, 0.0, 1000.0, 0.0, 1000.0, 50000.0);
  for (size_t i = 0; i < g; ++i) {
    for (size_t j = 0; j < g; ++j) {
      append_bucket(1, static_cast<double>(i) * width,
                    static_cast<double>(i + 1) * width,
                    static_cast<double>(j) * width,
                    static_cast<double>(j + 1) * width,
                    static_cast<double>((i + j) % 7 + 1));
    }
  }
  return binfmt::Frame("STHB", STHoles::kBinaryFormatVersion, payload);
}

struct Throughput {
  double queries_per_second = 0.0;
  double checksum = 0.0;  // Defeats dead-code elimination.
};

template <typename EstimateFn>
Throughput Measure(const Workload& queries, size_t reps, EstimateFn&& fn) {
  Throughput t;
  auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reps; ++r) {
    for (const Box& q : queries) t.checksum += fn(q);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  t.queries_per_second =
      static_cast<double>(reps * queries.size()) / seconds;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  sthist::bench::BenchOptions options =
      sthist::bench::ParseBenchOptions(argc, argv);
  // g x g child grids: 1,025 / 10,001 / 50,177 buckets.
  const size_t grids[] = {32, 100, 224};

  std::printf("probe kernel: %s\n", simd::LevelName(simd::ActiveLevel()));
  std::printf("%9s %14s %14s %8s\n", "buckets", "linear q/s", "indexed q/s",
              "speedup");

  bool ok = true;
  double speedup_10k = 0.0;
  double speedup_50k = 0.0;
  for (size_t g : grids) {
    STHolesConfig config;
    config.max_buckets = g * g + 8;
    StatusOr<std::unique_ptr<STHoles>> loaded =
        STHoles::DeserializeBinary(GridHistogramBlob(g), config);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load the g=%zu histogram: %s\n", g,
                   loaded.status().ToString().c_str());
      return 1;
    }
    const std::unique_ptr<STHoles> hist = *std::move(loaded);

    WorkloadConfig wc;
    wc.num_queries = 200;
    wc.volume_fraction = 0.01;
    wc.seed = 13;
    const Workload queries = MakeWorkload(hist->domain(), wc);

    // Warm the lazily built index so the timed region measures steady state.
    for (const Box& q : queries) (void)hist->Estimate(q);

    // Bitwise identity check before timing: the speedup below is only
    // meaningful because the answers are exactly the same.
    for (const Box& q : queries) {
      if (std::bit_cast<uint64_t>(hist->Estimate(q)) !=
          std::bit_cast<uint64_t>(hist->EstimateLinear(q))) {
        std::fprintf(stderr, "BITWISE MISMATCH at g=%zu\n", g);
        return 1;
      }
    }

    // Enough repetitions that even the fastest cell runs ~10^7 bucket
    // visits' worth of work on the linear side.
    const size_t reps =
        std::max<size_t>(3, 20'000'000 / (g * g * queries.size()));

    const Throughput linear = Measure(
        queries, reps, [&](const Box& q) { return hist->EstimateLinear(q); });
    const Throughput indexed = Measure(
        queries, reps, [&](const Box& q) { return hist->Estimate(q); });

    if (linear.checksum != indexed.checksum) {
      std::fprintf(stderr, "checksum drift at g=%zu\n", g);
      return 1;
    }

    const double speedup = indexed.queries_per_second /
                           linear.queries_per_second;
    std::printf("%9zu %14.0f %14.0f %7.1fx\n", hist->bucket_count(),
                linear.queries_per_second, indexed.queries_per_second,
                speedup);
    if (g == 100) speedup_10k = speedup;
    if (g == 224) speedup_50k = speedup;
    // The acceptance bar: >= 5x single-thread at 10k and at 50k buckets.
    if (g >= 100 && speedup < 5.0) {
      std::fprintf(stderr, "indexed speedup %.1fx below 5x at %zu buckets\n",
                   speedup, hist->bucket_count());
      ok = false;
    }
  }

  if (!sthist::bench::WriteBenchArtifact(
          options, "index",
          {{"speedup_10k", speedup_10k}, {"speedup_50k", speedup_50k}})) {
    return 1;
  }

  if (!ok) {
    std::fprintf(stderr, "index bench below its acceptance bars — regression\n");
    return 1;
  }
  return 0;
}
