// Tests for the static estimator baselines: AVI (per-attribute equi-depth
// histograms under the independence assumption), uniform sampling, and the
// MHIST-2 MaxDiff multidimensional histogram.

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "data/generators.h"
#include "histogram/avi.h"
#include "histogram/equiwidth.h"
#include "histogram/mhist.h"
#include "histogram/registry.h"
#include "histogram/sampling.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

Dataset UniformData(size_t n, size_t dim, uint64_t seed) {
  Dataset data(dim);
  Rng rng(seed);
  Point p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) p[d] = rng.Uniform(0, 100);
    data.Append(p);
  }
  return data;
}

// ---------------------------------------------------------------------------
// AVI
// ---------------------------------------------------------------------------

TEST(AviTest, FullDomainSelectivityIsOne) {
  Dataset data = UniformData(2000, 2, 1);
  Box domain = Box::Cube(2, 0, 100);
  AviHistogram h(data, domain, 10);
  EXPECT_NEAR(h.Estimate(domain), 2000.0, 1.0);
  EXPECT_EQ(h.bucket_count(), 20u) << "10 buckets in each of 2 dims";
}

TEST(AviTest, IndependentDataEstimatesWell) {
  Dataset data = UniformData(20000, 2, 2);
  Box domain = Box::Cube(2, 0, 100);
  AviHistogram h(data, domain, 20);
  Executor executor(data);
  Box q({10.0, 30.0}, {60.0, 80.0});
  double real = executor.Count(q);
  EXPECT_NEAR(h.Estimate(q), real, 0.05 * real)
      << "independence holds on uniform data";
}

TEST(AviTest, EquiDepthAdaptsToSkewPerDimension) {
  // Strongly skewed in x, uniform in y; a 1-d range in x must still be
  // estimated accurately thanks to equi-depth boundaries.
  Dataset data(2);
  Rng rng(3);
  Point p(2);
  for (int i = 0; i < 20000; ++i) {
    p[0] = std::pow(rng.Uniform01(), 4.0) * 100.0;  // Mass near 0.
    p[1] = rng.Uniform(0, 100);
    data.Append(p);
  }
  Box domain = Box::Cube(2, 0, 100);
  AviHistogram h(data, domain, 50);
  Executor executor(data);
  Box q({0.0, 0.0}, {5.0, 100.0});
  double real = executor.Count(q);
  EXPECT_NEAR(h.Estimate(q), real, 0.1 * real);
}

TEST(AviTest, CorrelationBreaksIndependence) {
  // The paper's motivating failure: perfectly correlated attributes. Points
  // on the diagonal; AVI estimates sel_x * sel_y and is off by ~10x on a
  // diagonal block.
  Dataset data(2);
  Rng rng(4);
  Point p(2);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.Uniform(0, 100);
    p[0] = v;
    p[1] = v;
    data.Append(p);
  }
  Box domain = Box::Cube(2, 0, 100);
  AviHistogram h(data, domain, 50);
  Executor executor(data);

  Box diag_block({10.0, 10.0}, {20.0, 20.0});  // Real: ~10% of tuples.
  double real = executor.Count(diag_block);
  double est = h.Estimate(diag_block);
  EXPECT_LT(est, 0.2 * real)
      << "AVI underestimates correlated blocks by ~sel_x (10x here)";
}

TEST(AviTest, DisjointQueryEstimatesZero) {
  Dataset data = UniformData(100, 2, 5);
  AviHistogram h(data, Box::Cube(2, 0, 100), 4);
  EXPECT_DOUBLE_EQ(h.Estimate(Box::Cube(2, 200, 300)), 0.0);
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

TEST(SamplingTest, FullSampleIsExact) {
  Dataset data = UniformData(1000, 2, 6);
  Executor executor(data);
  SamplingEstimator h(data, 1000, 7);
  Box q = Box::Cube(2, 20, 70);
  EXPECT_DOUBLE_EQ(h.Estimate(q), executor.Count(q));
}

TEST(SamplingTest, ScaleIsUnbiasedOnLargeRanges) {
  Dataset data = UniformData(50000, 2, 8);
  Executor executor(data);
  SamplingEstimator h(data, 5000, 9);
  Box q = Box::Cube(2, 10, 90);
  double real = executor.Count(q);
  EXPECT_NEAR(h.Estimate(q), real, 0.05 * real);
}

TEST(SamplingTest, SelectiveQueriesAreNoisy) {
  // The known weakness: a range holding 10 tuples out of 50k is estimated
  // from ~1 sampled tuple; the estimate is a coarse multiple of the scale.
  Dataset data = UniformData(50000, 2, 10);
  SamplingEstimator h(data, 500, 11);
  double scale = 50000.0 / 500.0;
  Box q = Box::Cube(2, 50, 51.5);
  double est = h.Estimate(q);
  EXPECT_NEAR(std::fmod(est, scale), 0.0, 1e-9)
      << "estimates are multiples of the inverse sampling rate";
}

TEST(SamplingTest, OversizedSampleRequestClamps) {
  Dataset data = UniformData(100, 2, 12);
  SamplingEstimator h(data, 1000, 13);
  EXPECT_EQ(h.bucket_count(), 100u);
}

// ---------------------------------------------------------------------------
// MHist
// ---------------------------------------------------------------------------

TEST(MHistTest, SingleBucketIsTrivial) {
  Dataset data = UniformData(1000, 2, 14);
  MHistConfig config;
  config.max_buckets = 1;
  MHistHistogram h(data, Box::Cube(2, 0, 100), config);
  EXPECT_EQ(h.bucket_count(), 1u);
  EXPECT_NEAR(h.Estimate(Box::Cube(2, 0, 100)), 1000.0, 1e-9);
}

// A zero budget is a caller error for every family the budget sizes,
// reported by the registry as a Status instead of a failed construction
// CHECK.
TEST(MHistTest, RegistryRejectsZeroBudget) {
  Dataset data = UniformData(1000, 2, 14);
  HistogramConfig hc;
  hc.domain = Box::Cube(2, 0, 100);
  hc.total_tuples = 1000.0;
  hc.data = &data;
  hc.buckets = 0;
  for (const char* name : {"mhist", "sampling", "kde"}) {
    EXPECT_EQ(MakeHistogram(name, hc).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(MHistTest, BucketsPartitionTheDomain) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 2000;
  data_config.noise_tuples = 400;
  GeneratedData g = MakeCross(data_config);
  MHistConfig config;
  config.max_buckets = 60;
  MHistHistogram h(g.data, g.domain, config);
  EXPECT_LE(h.bucket_count(), 60u);

  // Volumes add up to the domain volume, mass to the tuple count.
  double volume = 0.0, mass = 0.0;
  for (const MHistHistogram::BucketInfo& b : h.Dump()) {
    volume += b.box.Volume();
    mass += b.frequency;
  }
  EXPECT_NEAR(volume, g.domain.Volume(), 1e-6 * g.domain.Volume());
  EXPECT_NEAR(mass, static_cast<double>(g.data.size()), 1e-9);
  // And buckets are pairwise non-overlapping.
  std::vector<MHistHistogram::BucketInfo> dump = h.Dump();
  for (size_t i = 0; i < dump.size(); ++i) {
    for (size_t j = i + 1; j < dump.size(); ++j) {
      EXPECT_FALSE(dump[i].box.Intersects(dump[j].box));
    }
  }
}

TEST(MHistTest, SplitsChaseTheDensityJumps) {
  // A sharp block on uniform background: MaxDiff splits should isolate the
  // block and estimate queries around it much better than one bucket.
  Dataset data(2);
  Rng rng(15);
  Point p(2);
  for (int i = 0; i < 8000; ++i) {
    p[0] = rng.Uniform(40, 60);
    p[1] = rng.Uniform(40, 60);
    data.Append(p);
  }
  for (int i = 0; i < 2000; ++i) {
    p[0] = rng.Uniform(0, 100);
    p[1] = rng.Uniform(0, 100);
    data.Append(p);
  }
  Box domain = Box::Cube(2, 0, 100);
  Executor executor(data);

  MHistConfig config;
  config.max_buckets = 40;
  MHistHistogram h(data, domain, config);

  Box block({40.0, 40.0}, {60.0, 60.0});
  double real = executor.Count(block);
  EXPECT_NEAR(h.Estimate(block), real, 0.1 * real);
  Box empty({0.0, 0.0}, {30.0, 30.0});
  EXPECT_LT(h.Estimate(empty), 0.15 * real);
}

TEST(MHistTest, BeatsEquiWidthOnSkewedDataAtEqualBudget) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 4000;
  data_config.noise_tuples = 800;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);

  MHistConfig config;
  config.max_buckets = 64;
  MHistHistogram mhist(g.data, g.domain, config);

  WorkloadConfig wc;
  wc.num_queries = 200;
  wc.volume_fraction = 0.01;
  Workload w = MakeWorkload(g.domain, wc);

  double mhist_err = 0.0;
  for (const Box& q : w) {
    mhist_err += std::abs(mhist.Estimate(q) - executor.Count(q));
  }

  // 8x8 equi-width grid = the same 64-bucket budget.
  EquiWidthHistogram grid(g.data, g.domain, 8);
  double grid_err = 0.0;
  for (const Box& q : w) {
    grid_err += std::abs(grid.Estimate(q) - executor.Count(q));
  }

  EXPECT_LT(mhist_err, grid_err)
      << "MaxDiff splits follow the density jumps; the rigid grid cannot";
}

}  // namespace
}  // namespace sthist
