// Micro-benchmark: estimation cost as a function of synopsis budget, for
// STHoles (bucket count) and the KDE estimator (sample capacity) at matched
// budgets.
//
// Supplies its own main (instead of benchmark_main) so the shared bench
// flags — notably --metrics-json for the BENCH_estimate.json artifact — are
// stripped before google-benchmark sees the command line.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "data/generators.h"
#include "histogram/kde.h"
#include "histogram/stholes.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace {

using namespace sthist;

struct Fixture {
  GeneratedData g;
  Executor executor;
  Workload queries;

  explicit Fixture(size_t buckets)
      : g(MakeGauss([] {
          GaussConfig config;
          config.cluster_tuples = 30000;
          config.noise_tuples = 3000;
          return config;
        }())),
        executor(g.data) {
    WorkloadConfig wc;
    wc.num_queries = 200;
    wc.volume_fraction = 0.01;
    queries = MakeWorkload(g.domain, wc);
    STHolesConfig hc;
    hc.max_buckets = buckets;
    hist = std::make_unique<STHoles>(g.domain,
                                     static_cast<double>(g.data.size()), hc);
    for (const Box& q : queries) hist->Refine(q, executor);
  }

  std::unique_ptr<STHoles> hist;
};

Fixture& FixtureFor(int64_t buckets) {
  static Fixture* fixtures[4] = {nullptr, nullptr, nullptr, nullptr};
  int slot = buckets == 10 ? 0 : buckets == 50 ? 1 : buckets == 100 ? 2 : 3;
  if (fixtures[slot] == nullptr) {
    fixtures[slot] = new Fixture(static_cast<size_t>(buckets));
  }
  return *fixtures[slot];
}

// Indexed path (the production Estimate, served through the flat bucket
// index after its lazy build).
void BM_Estimate(benchmark::State& state) {
  Fixture& f = FixtureFor(state.range(0));
  for (const Box& q : f.queries) (void)f.hist->Estimate(q);  // Build the index.
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.hist->Estimate(f.queries[i]));
    i = (i + 1) % f.queries.size();
  }
  state.counters["buckets"] =
      static_cast<double>(f.hist->bucket_count());
}

// Retained full-tree scan, the reference the indexed path must match
// bitwise (see tests/index_differential_test.cc).
void BM_EstimateLinear(benchmark::State& state) {
  Fixture& f = FixtureFor(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.hist->EstimateLinear(f.queries[i]));
    i = (i + 1) % f.queries.size();
  }
  state.counters["buckets"] =
      static_cast<double>(f.hist->bucket_count());
}

BENCHMARK(BM_Estimate)->Arg(10)->Arg(50)->Arg(100)->Arg(250);
BENCHMARK(BM_EstimateLinear)->Arg(10)->Arg(50)->Arg(100)->Arg(250);

// KDE counterpart at matched budgets: sample_capacity plays the role of the
// bucket count (both are the per-query O(budget · dim) estimation dial).
struct KdeFixture {
  GeneratedData g;
  Executor executor;
  Workload queries;

  explicit KdeFixture(size_t capacity)
      : g(MakeGauss([] {
          GaussConfig config;
          config.cluster_tuples = 30000;
          config.noise_tuples = 3000;
          return config;
        }())),
        executor(g.data) {
    WorkloadConfig wc;
    wc.num_queries = 200;
    wc.volume_fraction = 0.01;
    queries = MakeWorkload(g.domain, wc);
    KdeConfig kc;
    kc.sample_capacity = capacity;
    hist = std::make_unique<KdeHistogram>(
        g.domain, static_cast<double>(g.data.size()), kc);
    for (const Box& q : queries) hist->Refine(q, executor);
  }

  std::unique_ptr<KdeHistogram> hist;
};

KdeFixture& KdeFixtureFor(int64_t capacity) {
  static KdeFixture* fixtures[4] = {nullptr, nullptr, nullptr, nullptr};
  int slot = capacity == 10 ? 0 : capacity == 50 ? 1 : capacity == 100 ? 2 : 3;
  if (fixtures[slot] == nullptr) {
    fixtures[slot] = new KdeFixture(static_cast<size_t>(capacity));
  }
  return *fixtures[slot];
}

// The KDE estimate: one row-major scan over the sample.
void BM_KdeEstimate(benchmark::State& state) {
  KdeFixture& f = KdeFixtureFor(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.hist->Estimate(f.queries[i]));
    i = (i + 1) % f.queries.size();
  }
  state.counters["buckets"] = static_cast<double>(f.hist->bucket_count());
}

BENCHMARK(BM_KdeEstimate)->Arg(10)->Arg(50)->Arg(100)->Arg(250);

}  // namespace

int main(int argc, char** argv) {
  sthist::bench::BenchOptions options =
      sthist::bench::ExtractBenchOptions(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!sthist::bench::WriteBenchArtifact(options, "estimate", {})) return 1;
  return 0;
}
