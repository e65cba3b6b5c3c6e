// Differential suite for the indexed estimation paths (DESIGN.md §10): for
// every histogram with a spatial bucket index, the indexed Estimate must be
// BITWISE identical to the retained linear-scan reference (EstimateLinear) —
// across dimensionalities, seeds, and drill/merge histories, and after
// serialization round-trips. Comparisons go through std::bit_cast so even a
// sign-of-zero or last-ulp divergence fails.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/binfmt.h"
#include "core/box.h"
#include "core/check.h"
#include "core/rng.h"
#include "core/simd.h"
#include "data/generators.h"
#include "core/status.h"
#include "histogram/histogram.h"
#include "histogram/isomer.h"
#include "histogram/kde.h"
#include "histogram/mhist.h"
#include "histogram/stgrid.h"
#include "histogram/stholes.h"
#include "obs/metrics.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

::testing::AssertionResult BitEqual(double indexed, double linear) {
  if (Bits(indexed) == Bits(linear)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "indexed=" << indexed << " (0x" << std::hex << Bits(indexed)
         << ") linear=" << linear << " (0x" << Bits(linear) << ")";
}

// Indexed scalar path and the linear reference must agree bitwise on every
// probe.
void ExpectAllPathsBitEqual(const Histogram& h, const Workload& probes) {
  for (size_t i = 0; i < probes.size(); ++i) {
    const double linear = h.EstimateLinear(probes[i]);
    EXPECT_TRUE(BitEqual(h.Estimate(probes[i]), linear))
        << "scalar, probe " << i << ": " << probes[i].ToString();
  }
}

GeneratedData MakeCrossData(size_t dim, uint64_t seed) {
  CrossConfig config;
  config.dim = dim;
  config.tuples_per_cluster = dim <= 2 ? 1500 : 600;
  config.noise_tuples = 300;
  config.seed = seed;
  return MakeCross(config);
}

// Probes include training-scale boxes, larger boxes, and the full domain.
Workload MakeProbes(const Box& domain, uint64_t seed, size_t count = 40) {
  WorkloadConfig wc;
  wc.num_queries = count;
  wc.volume_fraction = 0.01;
  wc.seed = DeriveSeed(seed, 0);
  Workload probes = MakeWorkload(domain, wc);
  wc.num_queries = count / 4;
  wc.volume_fraction = 0.2;
  wc.seed = DeriveSeed(seed, 1);
  Workload big = MakeWorkload(domain, wc);
  probes.insert(probes.end(), big.begin(), big.end());
  probes.push_back(domain);
  return probes;
}

// ---------------------------------------------------------------------------
// STHoles

class STHolesDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t, size_t>> {};

// Drives a full refinement history and checks indexed-vs-linear identity as
// the bucket tree evolves. The small budget forces merges; below the large
// one, every drill on a built index invalidates it and the next repeated
// estimate rebuilds it.
TEST_P(STHolesDifferentialTest, IndexedMatchesLinearAcrossHistory) {
  const auto [dim, seed, budget] = GetParam();
  GeneratedData g = MakeCrossData(dim, seed);
  Executor executor(g.data);

  STHolesConfig config;
  config.max_buckets = budget;
  STHoles h(g.domain, static_cast<double>(g.data.size()), config);

  WorkloadConfig wc;
  wc.num_queries = 80;
  wc.seed = DeriveSeed(seed, 10);
  Workload train = MakeWorkload(g.domain, wc);
  Workload probes = MakeProbes(g.domain, seed + 1, 20);

  for (size_t i = 0; i < train.size(); ++i) {
    h.Refine(train[i], executor);
    // Cheap spot-check after every structural change; rotate through the
    // probe set so each probe is exercised against many tree shapes.
    for (size_t k = 0; k < 3; ++k) {
      const Box& q = probes[(3 * i + k) % probes.size()];
      EXPECT_TRUE(BitEqual(h.Estimate(q), h.EstimateLinear(q)))
          << "refine " << i << ", probe " << q.ToString();
    }
  }
  h.CheckInvariants();
  ExpectAllPathsBitEqual(h, probes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, STHolesDifferentialTest,
    ::testing::Combine(::testing::Values<size_t>(2, 3, 5, 8),
                       ::testing::Values<uint64_t>(21, 77),
                       ::testing::Values<size_t>(12, 500)),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param)) + "_budget" +
             std::to_string(std::get<2>(info.param));
    });

// The §10 contract must hold regardless of which box-matching kernel the
// probe dispatches to (DESIGN.md §15): under the forced-scalar kernel, the
// indexed paths still reproduce the linear reference bit for bit, and agree
// with the natively dispatched result. The CI scalar-fallback leg
// (-DSTHIST_NO_SIMD) re-runs the whole suite with the vector kernels
// compiled out; this test covers the runtime-dispatch seam in SIMD builds.
TEST(STHolesDifferentialTest, ScalarKernelPreservesIdentity) {
  GeneratedData g = MakeCrossData(3, 33);
  Executor executor(g.data);

  STHolesConfig config;
  config.max_buckets = 40;
  STHoles h(g.domain, static_cast<double>(g.data.size()), config);

  WorkloadConfig wc;
  wc.num_queries = 80;
  wc.seed = 35;
  for (const Box& q : MakeWorkload(g.domain, wc)) h.Refine(q, executor);

  Workload probes = MakeProbes(g.domain, 37);
  std::vector<double> native;
  native.reserve(probes.size());
  for (const Box& q : probes) native.push_back(h.Estimate(q));

  simd::ForceScalarForTest(true);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_TRUE(BitEqual(h.Estimate(probes[i]), h.EstimateLinear(probes[i])))
        << "scalar kernel vs linear, probe " << probes[i].ToString();
    EXPECT_TRUE(BitEqual(h.Estimate(probes[i]), native[i]))
        << "scalar kernel vs dispatched, probe " << probes[i].ToString();
  }
  ExpectAllPathsBitEqual(h, probes);
  simd::ForceScalarForTest(false);
}

TEST(STHolesDifferentialTest, SerializationRoundTripPreservesIdentity) {
  GeneratedData g = MakeCrossData(3, 5);
  Executor executor(g.data);

  STHolesConfig config;
  config.max_buckets = 40;
  STHoles h(g.domain, static_cast<double>(g.data.size()), config);

  WorkloadConfig wc;
  wc.num_queries = 120;
  wc.seed = 9;
  for (const Box& q : MakeWorkload(g.domain, wc)) h.Refine(q, executor);

  StatusOr<std::unique_ptr<STHoles>> restored =
      STHoles::DeserializeBinary(h.SerializeBinary(), config);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::unique_ptr<STHoles> loaded = *std::move(restored);
  loaded->CheckInvariants();

  Workload probes = MakeProbes(g.domain, 13);
  // The reconstructed histogram estimates bit-exactly like the original,
  // and its freshly built index matches its own linear scan — under the
  // dispatched kernel and the forced-scalar one alike.
  for (const Box& q : probes) {
    EXPECT_TRUE(BitEqual(loaded->Estimate(q), h.Estimate(q))) << q.ToString();
  }
  ExpectAllPathsBitEqual(*loaded, probes);
  simd::ForceScalarForTest(true);
  for (const Box& q : probes) {
    EXPECT_TRUE(BitEqual(loaded->Estimate(q), h.EstimateLinear(q)))
        << "scalar kernel, probe " << q.ToString();
  }
  simd::ForceScalarForTest(false);
}

// Bucket trees synthesized as STHB snapshots (DESIGN.md §17), so the walk
// meets exact shapes: child runs shorter than, equal to and longer than the
// SIMD block, in every dimensionality up to 6.

// One bucket of a synthesized tree; trees list their buckets in pre-order.
struct SynthBucket {
  uint32_t depth;
  Box box;
  double frequency;
};

// The STHoles histogram an STHB blob of `buckets` loads as.
std::unique_ptr<STHoles> LoadSynthesized(
    const std::vector<SynthBucket>& buckets) {
  std::string payload;
  binfmt::AppendU32(&payload, static_cast<uint32_t>(buckets[0].box.dim()));
  binfmt::AppendU64(&payload, buckets.size());
  for (const SynthBucket& b : buckets) {
    binfmt::AppendU32(&payload, b.depth);
    for (size_t d = 0; d < b.box.dim(); ++d) {
      binfmt::AppendF64(&payload, b.box.lo(d));
      binfmt::AppendF64(&payload, b.box.hi(d));
    }
    binfmt::AppendF64(&payload, b.frequency);
  }
  STHolesConfig config;
  config.max_buckets = buckets.size() + 8;
  StatusOr<std::unique_ptr<STHoles>> loaded = STHoles::DeserializeBinary(
      binfmt::Frame("STHB", STHoles::kBinaryFormatVersion, payload), config);
  STHIST_CHECK(loaded.ok());
  return *std::move(loaded);
}

// `slots` slabs along dimension 0 of `parent`, each inset by a tenth of its
// width and spanning [inset, 1 - inset] of the parent in the other
// dimensions.
std::vector<Box> Slabs(const Box& parent, size_t slots, double inset) {
  std::vector<Box> slabs;
  const double width = parent.Extent(0) / static_cast<double>(slots);
  for (size_t i = 0; i < slots; ++i) {
    Box b = parent;
    b.set_lo(0, parent.lo(0) + (static_cast<double>(i) + 0.1) * width);
    b.set_hi(0, parent.lo(0) + (static_cast<double>(i) + 0.9) * width);
    for (size_t d = 1; d < parent.dim(); ++d) {
      b.set_lo(d, parent.lo(d) + inset * parent.Extent(d));
      b.set_hi(d, parent.hi(d) - inset * parent.Extent(d));
    }
    slabs.push_back(b);
  }
  return slabs;
}

// Every probe, indexed (hot) against linear, under the dispatched kernel
// and the forced-scalar one.
void ExpectHotReadsBitEqual(STHoles& h, const Workload& probes) {
  for (bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar kernel" : "dispatched kernel");
    simd::ForceScalarForTest(scalar);
    for (const Box& q : probes) (void)h.Estimate(q);  // Build the index.
    ExpectAllPathsBitEqual(h, probes);
    simd::ForceScalarForTest(false);
  }
}

class ChildRunTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

// A root with a run of `slots` children, the first of which holds a run of
// `slots` grandchildren, probed by random boxes and by boxes that touch a
// child's faces (which open-interior matching must miss).
TEST_P(ChildRunTest, HotWalkMatchesLinear) {
  const auto [dim, slots] = GetParam();
  const Box domain = Box::Cube(dim, 0.0, 1000.0);
  const std::vector<Box> children = Slabs(domain, slots, 0.1);
  const std::vector<Box> grandchildren = Slabs(children[0], slots, 0.2);
  std::vector<SynthBucket> buckets = {{0, domain, 5000.0}};
  for (size_t i = 0; i < slots; ++i) {
    buckets.push_back({1, children[i], static_cast<double>(i % 7 + 1)});
    if (i != 0) continue;
    for (size_t j = 0; j < slots; ++j) {
      buckets.push_back({2, grandchildren[j], static_cast<double>(j % 5 + 2)});
    }
  }
  std::unique_ptr<STHoles> h = LoadSynthesized(buckets);

  Workload probes = MakeProbes(domain, 100 * dim + slots);
  for (const std::vector<Box>* run : {&children, &grandchildren}) {
    for (size_t i : {size_t{0}, slots / 2, slots - 1}) {
      const Box& b = (*run)[i];
      Box below = b;
      below.set_hi(0, b.lo(0));
      below.set_lo(0, b.lo(0) - 0.05 * b.Extent(0));
      Box above = b;
      above.set_lo(0, b.hi(0));
      above.set_hi(0, b.hi(0) + 0.05 * b.Extent(0));
      probes.insert(probes.end(), {b, below, above});
    }
  }
  ExpectHotReadsBitEqual(*h, probes);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChildRunTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 4, 5, 6),
                       ::testing::Values<size_t>(1, 3, 4, 5, 1000)),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_slots" +
             std::to_string(std::get<1>(info.param));
    });

// bench_index's shape: a root over [0,1000]^2 tiled by a 32 x 32 grid of
// children that share their faces, probed by bench_index's workload.
TEST(GridRunTest, BenchIndexGridMatchesLinear) {
  const size_t g = 32;
  const double width = 1000.0 / static_cast<double>(g);
  std::vector<SynthBucket> buckets = {
      {0, Box::Cube(2, 0.0, 1000.0), 50000.0}};
  for (size_t i = 0; i < g; ++i) {
    for (size_t j = 0; j < g; ++j) {
      const double x = static_cast<double>(i) * width;
      const double y = static_cast<double>(j) * width;
      buckets.push_back({1, Box({x, y}, {x + width, y + width}),
                         static_cast<double>((i + j) % 7 + 1)});
    }
  }
  std::unique_ptr<STHoles> h = LoadSynthesized(buckets);
  WorkloadConfig wc;
  wc.num_queries = 200;
  wc.volume_fraction = 0.01;
  wc.seed = 13;
  ExpectHotReadsBitEqual(*h, MakeWorkload(h->domain(), wc));
}

// Uniform data: `per_1e4` tuples per 10^4 volume units.
class UniformOracle : public CardinalityOracle {
 public:
  explicit UniformOracle(double per_1e4) : per_1e4_(per_1e4) {}
  double Count(const Box& box) const override {
    return per_1e4_ * box.Volume() / 1e4;
  }

 private:
  double per_1e4_;
};

// A refine that changes frequencies but no structure leaves the index built:
// STHoles's exact-frequency correction of an existing hole, ISOMER's
// scaling. The next hot read must see the new frequencies, because they
// stay in the bucket nodes (DESIGN.md §10).
template <typename HistogramT, typename ConfigT>
void ExpectFrequencyOnlyRefineReachesHotReads() {
  const Box domain = Box::Cube(2, 0.0, 100.0);
  const Box box = Box::Cube(2, 10.0, 30.0);
  const Workload probes = {box, domain, Box::Cube(2, 0.0, 20.0),
                           Box::Cube(2, 25.0, 60.0)};
  for (bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar kernel" : "dispatched kernel");
    simd::ForceScalarForTest(scalar);
    obs::MetricsRegistry registry;
    ConfigT config;
    config.metrics = &registry;
    HistogramT h(domain, 1000.0, config);
    h.Refine(box, UniformOracle(1000.0));
    for (int pass = 0; pass < 2; ++pass) {
      for (const Box& q : probes) (void)h.Estimate(q);  // Build the index.
    }
    const double before = h.Estimate(box);
    obs::Counter builds = registry.counter("index.bucket_tree.builds");
    obs::Counter walks = registry.counter("index.bucket_tree.probes");
    const uint64_t built_before = builds.value();
    const uint64_t walked_before = walks.value();

    h.Refine(box, UniformOracle(3000.0));
    for (const Box& q : probes) {
      EXPECT_TRUE(BitEqual(h.Estimate(q), h.EstimateLinear(q)))
          << q.ToString();
    }
    EXPECT_NE(h.Estimate(box), before);
    EXPECT_EQ(builds.value(), built_before)
        << "the refine changed structure, so this test reads nothing hot";
    EXPECT_GT(walks.value(), walked_before);
    simd::ForceScalarForTest(false);
  }
}

TEST(FrequencyOnlyRefineTest, STHolesExactFrequencyReachesHotReads) {
  ExpectFrequencyOnlyRefineReachesHotReads<STHoles, STHolesConfig>();
}

TEST(FrequencyOnlyRefineTest, IsomerScalingReachesHotReads) {
  ExpectFrequencyOnlyRefineReachesHotReads<IsomerHistogram, IsomerConfig>();
}

// ---------------------------------------------------------------------------
// ISOMER

class IsomerDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t, size_t>> {};

TEST_P(IsomerDifferentialTest, IndexedMatchesLinearAcrossHistory) {
  const auto [dim, seed, budget] = GetParam();
  GeneratedData g = MakeCrossData(dim, seed);
  Executor executor(g.data);

  IsomerConfig config;
  config.max_buckets = budget;
  IsomerHistogram h(g.domain, static_cast<double>(g.data.size()), config);

  WorkloadConfig wc;
  wc.num_queries = 50;
  wc.seed = DeriveSeed(seed, 20);
  Workload train = MakeWorkload(g.domain, wc);
  Workload probes = MakeProbes(g.domain, seed + 2, 20);

  for (size_t i = 0; i < train.size(); ++i) {
    h.Refine(train[i], executor);
    for (size_t k = 0; k < 3; ++k) {
      const Box& q = probes[(3 * i + k) % probes.size()];
      EXPECT_TRUE(BitEqual(h.Estimate(q), h.EstimateLinear(q)))
          << "refine " << i << ", probe " << q.ToString();
    }
  }
  ExpectAllPathsBitEqual(h, probes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IsomerDifferentialTest,
    ::testing::Combine(::testing::Values<size_t>(2, 3),
                       ::testing::Values<uint64_t>(21, 77),
                       ::testing::Values<size_t>(15, 300)),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param)) + "_budget" +
             std::to_string(std::get<2>(info.param));
    });

// Const estimation must not perturb the learning trajectory: a histogram
// hammered with estimates between refinements ends bitwise identical to an
// untouched twin fed the same refinement sequence.
TEST(IsomerDifferentialTest, ConstEstimationDoesNotPerturbLearning) {
  GeneratedData g = MakeCrossData(2, 31);
  Executor executor(g.data);

  IsomerConfig config;
  config.max_buckets = 40;
  const double n = static_cast<double>(g.data.size());
  IsomerHistogram queried(g.domain, n, config);
  IsomerHistogram untouched(g.domain, n, config);

  WorkloadConfig wc;
  wc.num_queries = 40;
  wc.seed = 41;
  Workload train = MakeWorkload(g.domain, wc);
  Workload probes = MakeProbes(g.domain, 43, 12);

  for (size_t i = 0; i < train.size(); ++i) {
    for (size_t k = 0; k < 4; ++k) {
      (void)queried.Estimate(probes[(4 * i + k) % probes.size()]);
    }
    if (i % 5 == 0) {
      for (const Box& q : probes) (void)queried.Estimate(q);
    }
    queried.Refine(train[i], executor);
    untouched.Refine(train[i], executor);
  }
  for (const Box& q : probes) {
    EXPECT_TRUE(BitEqual(queried.Estimate(q), untouched.Estimate(q)))
        << q.ToString();
  }
}

// ---------------------------------------------------------------------------
// Bucket-tree goldens: STHoles and ISOMER share one bucket-tree core
// (geometry, eq. 1, candidate shrinking, hole carving, lazy index), so a
// fixed training run must keep producing these exact bits. The probe run
// covers both read paths: the first probe after training may be served
// linearly, the rest go through the index.

// FNV-1a over the 8 little-endian bytes of `value`.
void FoldFnv1a(uint64_t value, uint64_t* digest) {
  for (int byte = 0; byte < 8; ++byte) {
    *digest ^= (value >> (8 * byte)) & 0xffu;
    *digest *= 1099511628211ULL;
  }
}

GeneratedData MakeGoldenCross() {
  CrossConfig cross;
  cross.tuples_per_cluster = 2000;
  cross.noise_tuples = 400;
  return MakeCross(cross);
}

// FNV-1a over the bits of every probe's estimate, in probe order.
uint64_t EstimateDigest(const Histogram& h, const Workload& probes) {
  uint64_t digest = 1469598103934665603ULL;
  for (const Box& q : probes) FoldFnv1a(Bits(h.Estimate(q)), &digest);
  return digest;
}

struct GoldenSetup {
  uint64_t EstimateDigest(const Histogram& h) const {
    return sthist::EstimateDigest(h, probes);
  }

  GeneratedData g = MakeGoldenCross();
  Executor executor{g.data};
  Workload train =
      MakeWorkload(g.domain, {300, 0.01, CenterDistribution::kUniform, 7});
  Workload probes =
      MakeWorkload(g.domain, {200, 0.01, CenterDistribution::kUniform, 8});
};

TEST(BucketTreeGoldenTest, STHolesCrossTrainingIsBitStable) {
  const GoldenSetup s;
  STHolesConfig config;
  config.max_buckets = 50;
  STHoles h(s.g.domain, static_cast<double>(s.g.data.size()), config);
  for (const Box& q : s.train) h.Refine(q, s.executor);

  EXPECT_EQ(h.bucket_count(), 50u);
  EXPECT_EQ(binfmt::Fnv1a(h.SerializeBinary()), 0x3fc14366fa44d878ULL);
  EXPECT_EQ(s.EstimateDigest(h), 0x030d65f0af6a6026ULL);
}

// The shape merge search works hardest on: a wide root (88 children after
// training) and merges at depth, over about 2,000 merge searches.
TEST(BucketTreeGoldenTest, STHolesGauss250TrainingIsBitStable) {
  GaussConfig gauss;
  gauss.cluster_tuples = 18181;  // 20k tuples, split as sthist_cli splits them.
  gauss.noise_tuples = 1818;
  const GeneratedData g = MakeGauss(gauss);
  const Executor executor(g.data);
  STHolesConfig config;
  config.max_buckets = 250;
  STHoles h(g.domain, static_cast<double>(g.data.size()), config);
  for (const Box& q : MakeWorkload(
           g.domain, {100, 0.01, CenterDistribution::kUniform, 7})) {
    h.Refine(q, executor);
  }
  const Workload probes =
      MakeWorkload(g.domain, {200, 0.01, CenterDistribution::kUniform, 8});

  EXPECT_EQ(h.bucket_count(), 250u);
  EXPECT_EQ(binfmt::Fnv1a(h.SerializeBinary()), 0x4f3b59e53bcf1bb4ULL);
  EXPECT_EQ(EstimateDigest(h, probes), 0x6e5af18417f5a7a3ULL);
}

TEST(BucketTreeGoldenTest, IsomerCrossTrainingIsBitStable) {
  const GoldenSetup s;
  IsomerConfig config;
  config.max_buckets = 50;
  IsomerHistogram h(s.g.domain, static_cast<double>(s.g.data.size()), config);
  for (const Box& q : s.train) h.Refine(q, s.executor);

  EXPECT_EQ(h.bucket_count(), 50u);
  EXPECT_EQ(h.constraint_count(), 74u);
  uint64_t digest = s.EstimateDigest(h);
  FoldFnv1a(h.bucket_count(), &digest);
  FoldFnv1a(h.constraint_count(), &digest);
  EXPECT_EQ(digest, 0x16eafe22916d776dULL);
}

// KDE has no bucket tree, but the same fixed training run pins its sample,
// bandwidth adaptation and estimation arithmetic (including the gradient
// path Refine steers the bandwidths with) bit for bit.
TEST(KdeGoldenTest, CrossTrainingIsBitStable) {
  const GoldenSetup s;
  KdeConfig config;
  config.sample_capacity = 50;
  KdeHistogram h(s.g.domain, static_cast<double>(s.g.data.size()), config);
  for (const Box& q : s.train) h.Refine(q, s.executor);

  EXPECT_EQ(h.sample_size(), 50u);
  EXPECT_EQ(binfmt::Fnv1a(h.SerializeBinary()), 0x2b7d4046d270ac1eULL);
  EXPECT_EQ(s.EstimateDigest(h), 0x84a5aca641627eb2ULL);
}

// ---------------------------------------------------------------------------
// MHist

TEST(MHistDifferentialTest, IndexedMatchesLinear) {
  for (size_t dim : {2, 3, 5, 8}) {
    SCOPED_TRACE(dim);
    GeneratedData g = MakeCrossData(dim, 15);
    MHistConfig config;
    MHistHistogram h(g.data, g.domain, config);

    Workload probes = MakeProbes(g.domain, 17);
    // Degenerate probes (zero extent in one dimension) and probes whose
    // boundaries touch bucket edges exercise the closed-overlap probe mode.
    Rng rng(19);
    for (size_t i = 0; i < 20; ++i) {
      Box q = Box::Cube(dim, 0.0, 1.0);
      for (size_t d = 0; d < dim; ++d) {
        const double lo = rng.Uniform(g.domain.lo(d), g.domain.hi(d));
        const double extent =
            rng.Bernoulli(0.4) ? 0.0
                               : rng.Uniform(0.0, g.domain.Extent(d) * 0.3);
        q.set_lo(d, lo);
        q.set_hi(d, lo + extent);
      }
      probes.push_back(q);
    }
    ExpectAllPathsBitEqual(h, probes);
  }
}

// ---------------------------------------------------------------------------
// STGrid

TEST(STGridDifferentialTest, GridProbeMatchesFullTensorScan) {
  GeneratedData g = MakeCrossData(2, 25);
  Executor executor(g.data);

  STGridConfig config;
  STGridHistogram h(g.domain, static_cast<double>(g.data.size()), config);

  WorkloadConfig wc;
  wc.num_queries = 100;
  wc.seed = 27;
  Workload train = MakeWorkload(g.domain, wc);
  Workload probes = MakeProbes(g.domain, 29);
  // Probes reaching beyond the domain boundary: the out-of-domain portion
  // must contribute exactly zero on both paths.
  for (size_t d = 0; d < 2; ++d) {
    Box beyond = g.domain;
    beyond.set_hi(d, g.domain.hi(d) + g.domain.Extent(d));
    probes.push_back(beyond);
    Box below = g.domain;
    below.set_lo(d, g.domain.lo(d) - g.domain.Extent(d));
    probes.push_back(below);
  }

  for (size_t i = 0; i < train.size(); ++i) {
    h.Refine(train[i], executor);
    if (i % 10 == 0) {
      for (const Box& q : probes) {
        EXPECT_TRUE(BitEqual(h.Estimate(q), h.EstimateLinear(q)))
            << "refine " << i << ", probe " << q.ToString();
      }
    }
  }
  ExpectAllPathsBitEqual(h, probes);
}

// ---------------------------------------------------------------------------
// KDE

// An STHK round-trip reproduces the estimates bit-exactly: the restored
// sample, bandwidths, and engines are the originals.
TEST(KdeDifferentialTest, SerializationRoundTripPreservesIdentity) {
  GeneratedData g = MakeCrossData(3, 5);
  Executor executor(g.data);

  KdeConfig config;
  config.sample_capacity = 200;
  KdeHistogram h(g.domain, static_cast<double>(g.data.size()), config);

  WorkloadConfig wc;
  wc.num_queries = 120;
  wc.seed = 9;
  for (const Box& q : MakeWorkload(g.domain, wc)) h.Refine(q, executor);

  StatusOr<std::unique_ptr<KdeHistogram>> loaded =
      KdeHistogram::DeserializeBinary(h.SerializeBinary(), config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Workload probes = MakeProbes(g.domain, 13);
  for (const Box& q : probes) {
    EXPECT_TRUE(BitEqual((*loaded)->Estimate(q), h.Estimate(q)))
        << q.ToString();
  }
}

}  // namespace
}  // namespace sthist
