#include "histogram/isomer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "data/generators.h"
#include "histogram/stholes.h"
#include "obs/metrics.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

IsomerConfig Config(size_t buckets) {
  IsomerConfig config;
  config.max_buckets = buckets;
  return config;
}

TEST(IsomerTest, FreshHistogramIsUniform) {
  IsomerHistogram h(Box::Cube(2, 0, 100), 1000, Config(10));
  EXPECT_EQ(h.bucket_count(), 0u);
  EXPECT_DOUBLE_EQ(h.Estimate(Box::Cube(2, 0, 100)), 1000.0);
  EXPECT_DOUBLE_EQ(h.Estimate(Box::Cube(2, 0, 50)), 250.0);
  EXPECT_EQ(h.constraint_count(), 1u) << "the cardinality constraint";
}

// Solve builds the bucket index; a later drill that moves no child
// invalidates it, and the next Solve rebuilds it.
TEST(IsomerTest, DrillInvalidatesBuiltIndexAndSolveRebuildsIt) {
  Dataset data(2);
  Rng rng(4);
  Point p(2);
  for (int i = 0; i < 400; ++i) {
    p[0] = rng.Uniform(0, 100);
    p[1] = rng.Uniform(0, 100);
    data.Append(p);
  }
  Executor executor(data);
  obs::MetricsRegistry registry;
  IsomerConfig config = Config(10);
  config.metrics = &registry;
  IsomerHistogram h(Box::Cube(2, 0, 100), 400, config);
  const obs::Counter builds = registry.counter("index.bucket_tree.builds");
  const obs::Counter invalidations =
      registry.counter("index.bucket_tree.invalidations");

  h.Refine(Box::Cube(2, 10, 30), executor);
  ASSERT_EQ(h.bucket_count(), 1u);
  const uint64_t built = builds.value();
  const uint64_t invalidated = invalidations.value();
  ASSERT_GE(built, 1u) << "Solve probes through the index";

  // The only drill goes into the root, beside the existing child.
  h.Refine(Box::Cube(2, 60, 70), executor);
  ASSERT_EQ(h.bucket_count(), 2u);
  EXPECT_EQ(invalidations.value(), invalidated + 1);
  EXPECT_EQ(builds.value(), built + 1);
  h.CheckInvariants();
}

TEST(IsomerTest, SingleConstraintBecomesConsistent) {
  Dataset data(2);
  Rng rng(2);
  Point p(2);
  for (int i = 0; i < 500; ++i) {
    p[0] = rng.Uniform(10, 30);
    p[1] = rng.Uniform(10, 30);
    data.Append(p);
  }
  Executor executor(data);

  IsomerHistogram h(Box::Cube(2, 0, 100), 500, Config(20));
  Box q = Box::Cube(2, 5, 35);
  h.Refine(q, executor);
  EXPECT_NEAR(h.Estimate(q), 500.0, 5.0)
      << "scaling reconciles the new constraint";
  EXPECT_LT(h.MaxConstraintViolation(), 0.02);
  h.CheckInvariants();
}

TEST(IsomerTest, TotalMassStaysConsistent) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 2000;
  data_config.noise_tuples = 400;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);

  IsomerHistogram h(g.domain, static_cast<double>(g.data.size()),
                    Config(30));
  WorkloadConfig wc;
  wc.num_queries = 100;
  Workload w = MakeWorkload(g.domain, wc);
  for (const Box& q : w) h.Refine(q, executor);

  // The permanent cardinality constraint keeps the total near the relation
  // size even though individual scalings move mass around.
  EXPECT_NEAR(h.TotalFrequency(), static_cast<double>(g.data.size()),
              0.05 * static_cast<double>(g.data.size()));
  h.CheckInvariants();
}

TEST(IsomerTest, BudgetIsEnforced) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 1000;
  data_config.noise_tuples = 200;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);

  IsomerHistogram h(g.domain, static_cast<double>(g.data.size()),
                    Config(5));
  WorkloadConfig wc;
  wc.num_queries = 80;
  Workload w = MakeWorkload(g.domain, wc);
  for (const Box& q : w) {
    h.Refine(q, executor);
    ASSERT_LE(h.bucket_count(), 5u);
    h.CheckInvariants();
  }
}

TEST(IsomerTest, ConstraintWindowSlides) {
  Dataset data(2);
  data.Append(Point{50.0, 50.0});
  Executor executor(data);

  IsomerConfig config = Config(50);
  config.max_constraints = 10;
  IsomerHistogram h(Box::Cube(2, 0, 100), 1, config);
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    double x = rng.Uniform(0, 90);
    double y = rng.Uniform(0, 90);
    h.Refine(Box({x, y}, {x + 10, y + 10}), executor);
    EXPECT_LE(h.constraint_count(), 10u);
  }
}

TEST(IsomerTest, TrainingReducesWorkloadError) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 3000;
  data_config.noise_tuples = 600;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);

  IsomerHistogram h(g.domain, static_cast<double>(g.data.size()),
                    Config(50));
  WorkloadConfig wc;
  wc.num_queries = 200;
  Workload w = MakeWorkload(g.domain, wc);

  auto workload_error = [&]() {
    double total = 0;
    for (const Box& q : w) {
      total += std::abs(h.Estimate(q) - executor.Count(q));
    }
    return total / static_cast<double>(w.size());
  };

  double untrained = workload_error();
  for (const Box& q : w) h.Refine(q, executor);
  EXPECT_LT(workload_error(), 0.5 * untrained);
}

TEST(IsomerTest, RecentConstraintsStayNearlySatisfied) {
  GaussConfig data_config;
  data_config.dim = 3;
  data_config.max_subspace_dims = 3;
  data_config.cluster_tuples = 5000;
  data_config.noise_tuples = 500;
  GeneratedData g = MakeGauss(data_config);
  Executor executor(g.data);

  IsomerHistogram h(g.domain, static_cast<double>(g.data.size()),
                    Config(80));
  WorkloadConfig wc;
  wc.num_queries = 120;
  wc.volume_fraction = 0.02;
  Workload w = MakeWorkload(g.domain, wc);
  for (const Box& q : w) h.Refine(q, executor);
  // The inconsistency threshold (0.5) bounds what the retained window may
  // still be violated by after solving.
  EXPECT_LT(h.MaxConstraintViolation(),
            IsomerHistogram::kInconsistencyThreshold + 0.05)
      << "scaling keeps the retained window approximately consistent";
}

TEST(IsomerTest, ComparableToSTHolesOnSimpleData) {
  // Not a supremacy claim — just a sanity band: ISOMER should land in the
  // same error regime as STHoles on easy data, far below uniform.
  CrossConfig data_config;
  data_config.tuples_per_cluster = 3000;
  data_config.noise_tuples = 600;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);

  WorkloadConfig wc;
  wc.num_queries = 300;
  Workload train = MakeWorkload(g.domain, wc);
  wc.seed = 11;
  Workload eval = MakeWorkload(g.domain, wc);

  IsomerHistogram isomer(g.domain, static_cast<double>(g.data.size()),
                         Config(50));
  for (const Box& q : train) isomer.Refine(q, executor);

  STHolesConfig sc;
  sc.max_buckets = 50;
  STHoles holes(g.domain, static_cast<double>(g.data.size()), sc);
  for (const Box& q : train) holes.Refine(q, executor);

  auto mae = [&](const Histogram& h) {
    double total = 0;
    for (const Box& q : eval) {
      total += std::abs(h.Estimate(q) - executor.Count(q));
    }
    return total / static_cast<double>(eval.size());
  };

  double uniform_mae;
  {
    IsomerHistogram fresh(g.domain, static_cast<double>(g.data.size()),
                          Config(50));
    uniform_mae = mae(fresh);
  }
  EXPECT_LT(mae(isomer), 0.6 * uniform_mae);
  EXPECT_LT(mae(isomer), 3.0 * mae(holes));
}

}  // namespace
}  // namespace sthist
