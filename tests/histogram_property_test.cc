// Property suite run against EVERY Histogram implementation through the
// shared interface: estimates are finite and non-negative, the full-domain
// estimate recovers the dataset size (within per-implementation tolerance),
// estimation is monotone under query containment, and repeated calls —
// serial, or racing from cold on several threads — are bitwise deterministic.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <map>

#include "core/box.h"
#include "core/check.h"
#include "core/rng.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "histogram/histogram.h"
#include "histogram/registry.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// One dataset + executor + training workload shared by every implementation.
struct Scenario {
  Scenario(std::string name_in, GeneratedData g_in)
      : name(std::move(name_in)), g(std::move(g_in)) {}

  std::string name;
  GeneratedData g;
  std::unique_ptr<Executor> executor;
  Workload train;
  Workload eval;
};

std::unique_ptr<Scenario> MakeScenario(std::string name, GeneratedData g,
                                       uint64_t seed) {
  auto s = std::make_unique<Scenario>(std::move(name), std::move(g));
  s->executor = std::make_unique<Executor>(s->g.data);

  WorkloadConfig wc;
  wc.num_queries = 100;
  wc.volume_fraction = 0.01;
  wc.seed = DeriveSeed(seed, 0);
  s->train = MakeWorkload(s->g.domain, wc);

  // Evaluation probes mix the small training-sized queries with larger ones
  // so properties are checked across scales.
  wc.num_queries = 60;
  wc.seed = DeriveSeed(seed, 1);
  s->eval = MakeWorkload(s->g.domain, wc);
  wc.num_queries = 20;
  wc.volume_fraction = 0.15;
  wc.seed = DeriveSeed(seed, 2);
  Workload big = MakeWorkload(s->g.domain, wc);
  s->eval.insert(s->eval.end(), big.begin(), big.end());
  s->eval.push_back(s->g.domain);
  return s;
}

const std::vector<const Scenario*>& Scenarios() {
  static const std::vector<const Scenario*>* scenarios = [] {
    auto* out = new std::vector<const Scenario*>();

    CrossConfig cross;
    cross.tuples_per_cluster = 1500;
    cross.noise_tuples = 300;
    cross.seed = 11;
    out->push_back(MakeScenario("cross2d", MakeCross(cross), 101).release());

    GaussConfig gauss;
    gauss.dim = 4;
    gauss.num_clusters = 4;
    gauss.cluster_tuples = 4000;
    gauss.noise_tuples = 800;
    gauss.max_subspace_dims = 3;
    gauss.seed = 12;
    out->push_back(MakeScenario("gauss4d", MakeGauss(gauss), 202).release());
    return out;
  }();
  return *scenarios;
}

// One histogram implementation under test: a registry name, the relative
// tolerance for the full-domain-mass property, and a factory that builds
// (and, for self-tuning variants, trains) an instance for a scenario.
struct Impl {
  std::string name;
  double mass_rtol;
  std::function<std::unique_ptr<Histogram>(const Scenario&)> make;
};

// Per-family battery knobs. Every name in RegisteredNames() MUST have an
// entry here — the CHECK below turns "registered a new estimator but forgot
// the property battery" into an immediate test-binary failure rather than a
// silent coverage gap.
struct ImplTraits {
  double mass_rtol;     // Tolerance for the full-domain-mass property.
  size_t buckets;       // Generic synopsis budget (HistogramConfig::buckets).
  size_t cells_per_dim; // 0 = derive from buckets.
  size_t buckets_per_dim;
  bool train;           // Self-tuning families learn the scenario workload.
};

std::vector<Impl> AllImplementations() {
  // Self-tuning histograms (train=true) learn on the scenario workload with
  // true feedback; their full-domain mass tracks the dataset only
  // approximately. KDE is the exception: its domain-truncated kernels are
  // renormalized, so the full-domain estimate recovers the dataset size to
  // rounding however the bandwidths adapt.
  const std::map<std::string, ImplTraits> traits = {
      {"trivial", {1e-9, 100, 0, 0, false}},
      {"equiwidth", {1e-9, 100, 8, 0, false}},
      {"avi", {1e-9, 100, 0, 16, false}},
      {"sampling", {1e-9, 1000, 0, 0, false}},
      {"mhist", {1e-9, 100, 0, 0, false}},
      {"stgrid", {0.35, 100, 8, 0, true}},
      {"isomer", {0.25, 60, 0, 0, true}},
      {"stholes", {0.25, 60, 0, 0, true}},
      {"kde", {1e-6, 512, 0, 0, true}},
  };
  std::vector<Impl> impls;
  for (const std::string& name : RegisteredNames()) {
    auto it = traits.find(name);
    STHIST_CHECK_MSG(it != traits.end(),
                     "estimator '%s' is registered but has no property-test "
                     "traits; add it to the battery",
                     name.c_str());
    const ImplTraits t = it->second;
    impls.push_back(
        {name, t.mass_rtol, [name, t](const Scenario& s) {
           HistogramConfig hc;
           hc.domain = s.g.domain;
           hc.total_tuples = static_cast<double>(s.g.data.size());
           hc.data = &s.g.data;
           hc.buckets = t.buckets;
           hc.seed = 5;
           hc.cells_per_dim = t.cells_per_dim;
           hc.buckets_per_dim = t.buckets_per_dim;
           StatusOr<std::unique_ptr<Histogram>> made = MakeHistogram(name, hc);
           STHIST_CHECK_MSG(made.ok(), "MakeHistogram(%s): %s", name.c_str(),
                            made.status().message().c_str());
           std::unique_ptr<Histogram> h = *std::move(made);
           if (t.train) Train(h.get(), s.train, *s.executor);
           return h;
         }});
  }
  return impls;
}

class HistogramPropertyTest : public ::testing::TestWithParam<Impl> {};

TEST_P(HistogramPropertyTest, EstimatesAreFiniteAndNonNegative) {
  for (const Scenario* s : Scenarios()) {
    SCOPED_TRACE(s->name);
    std::unique_ptr<Histogram> h = GetParam().make(*s);
    for (const Box& q : s->eval) {
      const double est = h->Estimate(q);
      EXPECT_TRUE(std::isfinite(est)) << q.ToString();
      EXPECT_GE(est, 0.0) << q.ToString();
    }
  }
}

TEST_P(HistogramPropertyTest, FullDomainMassApproximatesDatasetSize) {
  for (const Scenario* s : Scenarios()) {
    SCOPED_TRACE(s->name);
    std::unique_ptr<Histogram> h = GetParam().make(*s);
    const double n = static_cast<double>(s->g.data.size());
    EXPECT_NEAR(h->Estimate(s->g.domain), n, GetParam().mass_rtol * n);
  }
}

// q1 ⊆ q2 ⇒ Estimate(q1) <= Estimate(q2) + eps. Every implementation here
// estimates as a non-negative-weighted sum of per-cell (or per-bucket-region,
// or per-sample-point) coverage terms, each individually monotone in the
// query box, so containment monotonicity is guaranteed up to rounding.
TEST_P(HistogramPropertyTest, ContainmentMonotonicity) {
  for (const Scenario* s : Scenarios()) {
    SCOPED_TRACE(s->name);
    std::unique_ptr<Histogram> h = GetParam().make(*s);
    Rng rng(DeriveSeed(77, s->g.data.dim()));
    for (const Box& q2 : s->eval) {
      // Random shrink: each bound moves inward by at most 40% of the width,
      // so q1 keeps positive volume and q1 ⊆ q2 holds by construction.
      Box q1 = q2;
      for (size_t d = 0; d < q2.dim(); ++d) {
        const double width = q2.hi(d) - q2.lo(d);
        const double lo = q2.lo(d) + rng.Uniform(0.0, 0.4) * width;
        const double hi = q2.hi(d) - rng.Uniform(0.0, 0.4) * width;
        q1.set_lo(d, lo);
        q1.set_hi(d, std::max(hi, lo));
      }
      const double est2 = h->Estimate(q2);
      const double est1 = h->Estimate(q1);
      EXPECT_LE(est1, est2 + 1e-6 * (1.0 + est2))
          << "q1=" << q1.ToString() << " q2=" << q2.ToString();
    }
  }
}

TEST_P(HistogramPropertyTest, EstimatesAreBitwiseDeterministic) {
  for (const Scenario* s : Scenarios()) {
    SCOPED_TRACE(s->name);
    std::unique_ptr<Histogram> h = GetParam().make(*s);

    // Scalar repeatability: a const Estimate must not drift call to call
    // (lazy index builds and rejection counters may not perturb results).
    std::vector<double> first;
    first.reserve(s->eval.size());
    for (const Box& q : s->eval) first.push_back(h->Estimate(q));
    for (size_t i = 0; i < s->eval.size(); ++i) {
      EXPECT_EQ(Bits(h->Estimate(s->eval[i])), Bits(first[i]))
          << s->eval[i].ToString();
    }

    // Concurrent cold readers: a twin that has never been estimated, raced
    // by 4 threads released together, each walking every probe from its own
    // offset — so lazy index builds race from cold, the way
    // serving readers hit a freshly published snapshot. Every answer must
    // match the serial one bit for bit.
    std::unique_ptr<Histogram> cold = GetParam().make(*s);
    constexpr size_t kReaders = 4;
    const size_t n = s->eval.size();
    std::vector<std::vector<double>> seen(kReaders, std::vector<double>(n));
    std::atomic<bool> go{false};
    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        while (!go.load()) std::this_thread::yield();
        for (size_t k = 0; k < n; ++k) {
          const size_t i = (r * n / kReaders + k) % n;
          seen[r][i] = cold->Estimate(s->eval[i]);
        }
      });
    }
    go.store(true);
    for (std::thread& t : readers) t.join();
    for (size_t r = 0; r < kReaders; ++r) {
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(seen[r][i]), Bits(first[i]))
            << "reader " << r << ": " << s->eval[i].ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllHistograms, HistogramPropertyTest,
                         ::testing::ValuesIn(AllImplementations()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace sthist
