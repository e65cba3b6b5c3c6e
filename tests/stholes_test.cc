#include "histogram/stholes.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/rng.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "workload/query.h"

namespace sthist {
namespace {

// A uniform block of points laid out deterministically on a sub-grid, so
// counts inside aligned boxes are exactly predictable.
void FillUniformBlock(const Box& block, size_t per_dim, Dataset* data) {
  const size_t dim = block.dim();
  size_t total = 1;
  for (size_t d = 0; d < dim; ++d) total *= per_dim;
  Point p(dim);
  for (size_t index = 0; index < total; ++index) {
    size_t rest = index;
    for (size_t d = 0; d < dim; ++d) {
      size_t cell = rest % per_dim;
      rest /= per_dim;
      double step = block.Extent(d) / static_cast<double>(per_dim);
      p[d] = block.lo(d) + (static_cast<double>(cell) + 0.5) * step;
    }
    data->Append(p);
  }
}

STHolesConfig Budget(size_t buckets) {
  STHolesConfig config;
  config.max_buckets = buckets;
  return config;
}

TEST(STHolesTest, FreshHistogramIsUniform) {
  Box domain = Box::Cube(2, 0, 100);
  STHoles h(domain, 1000, Budget(10));
  EXPECT_EQ(h.bucket_count(), 0u) << "root is not counted";
  EXPECT_EQ(h.total_bucket_count(), 1u);
  EXPECT_DOUBLE_EQ(h.Estimate(domain), 1000.0);
  EXPECT_DOUBLE_EQ(h.Estimate(Box::Cube(2, 0, 50)), 250.0);
}

TEST(STHolesTest, RefineMakesLearnedQueryExact) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 10, 20), 10, &data);  // 100 points.
  Executor executor(data);

  Box domain = Box::Cube(2, 0, 100);
  STHoles h(domain, 100, Budget(10));
  Box q = Box::Cube(2, 5, 25);
  double before = h.Estimate(q);
  EXPECT_NE(before, 100.0) << "uniformity assumption is wrong here";

  h.Refine(q, executor);
  EXPECT_NEAR(h.Estimate(q), 100.0, 1e-9)
      << "a just-learned query must estimate exactly";
  EXPECT_EQ(h.bucket_count(), 1u);
  h.CheckInvariants();
}

TEST(STHolesTest, QueryCoveringWholeDomainUpdatesRootOnly) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 0, 100), 10, &data);
  Executor executor(data);

  Box domain = Box::Cube(2, 0, 100);
  STHoles h(domain, 500, Budget(10));  // Deliberately wrong total.
  h.Refine(domain, executor);
  EXPECT_EQ(h.bucket_count(), 0u) << "no hole for a full-domain query";
  EXPECT_DOUBLE_EQ(h.Estimate(domain), 100.0) << "frequency corrected";
}

TEST(STHolesTest, QueryOutsideDomainIsIgnored) {
  Dataset data(2);
  data.Append(Point{50.0, 50.0});
  Executor executor(data);
  STHoles h(Box::Cube(2, 0, 100), 1, Budget(10));
  h.Refine(Box::Cube(2, 500, 600), executor);
  EXPECT_EQ(h.bucket_count(), 0u);
  h.CheckInvariants();
}

TEST(STHolesTest, DrilledHoleBecomesChildAndMassMovesDown) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 40, 60), 10, &data);  // 100 pts in center.
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 100, Budget(10));
  h.Refine(Box::Cube(2, 40, 60), executor);

  std::vector<STHoles::BucketInfo> dump = h.Dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].depth, 0u);
  EXPECT_DOUBLE_EQ(dump[0].frequency, 0.0) << "all mass is in the hole";
  EXPECT_EQ(dump[1].depth, 1u);
  EXPECT_DOUBLE_EQ(dump[1].frequency, 100.0);
  EXPECT_EQ(dump[1].box, Box::Cube(2, 40, 60));
  EXPECT_NEAR(h.TotalFrequency(), 100.0, 1e-9);
}

TEST(STHolesTest, CandidateShrinksAwayFromExistingChild) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 0, 100), 20, &data);  // 400 uniform points.
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 400, Budget(10));
  // First hole.
  h.Refine(Box({10.0, 10.0}, {30.0, 30.0}), executor);
  // Overlapping query: its candidate in the root must shrink off the child.
  h.Refine(Box({20.0, 20.0}, {50.0, 50.0}), executor);
  h.CheckInvariants();

  std::vector<STHoles::BucketInfo> dump = h.Dump();
  // Root + first hole + shrunken second hole (+ a hole drilled inside the
  // first child where the query overlapped it).
  EXPECT_GE(dump.size(), 3u);
  for (size_t i = 1; i < dump.size(); ++i) {
    for (size_t j = i + 1; j < dump.size(); ++j) {
      if (dump[i].depth == dump[j].depth) {
        EXPECT_FALSE(dump[i].box.Intersects(dump[j].box));
      }
    }
  }
}

TEST(STHolesTest, BudgetIsEnforcedByMerging) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 0, 100), 30, &data);
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 900, Budget(3));
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    double x = rng.Uniform(0, 90), y = rng.Uniform(0, 90);
    h.Refine(Box({x, y}, {x + 10, y + 10}), executor);
    EXPECT_LE(h.bucket_count(), 3u);
    h.CheckInvariants();
  }
}

TEST(STHolesTest, MergesConserveTotalFrequency) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 0, 100), 30, &data);
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 900, Budget(2));
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    double x = rng.Uniform(0, 85), y = rng.Uniform(0, 85);
    h.Refine(Box({x, y}, {x + 15, y + 15}), executor);
    // Exact feedback + mass-conserving merges keep the total at 900.
    EXPECT_NEAR(h.TotalFrequency(), 900.0, 1e-6);
  }
}

TEST(STHolesTest, EstimateOfDomainEqualsTotalFrequency) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 20, 80), 25, &data);
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 625, Budget(5));
  Rng rng(9);
  for (int i = 0; i < 25; ++i) {
    double x = rng.Uniform(0, 80), y = rng.Uniform(0, 80);
    h.Refine(Box({x, y}, {x + 20, y + 20}), executor);
    EXPECT_NEAR(h.Estimate(h.domain()), h.TotalFrequency(), 1e-6)
        << "eq. 1 over the whole domain sums all bucket frequencies";
  }
}

TEST(STHolesTest, RepeatedIdenticalQueriesAreStable) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 10, 30), 10, &data);
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 100, Budget(5));
  Box q = Box::Cube(2, 5, 35);
  h.Refine(q, executor);
  size_t buckets = h.bucket_count();
  for (int i = 0; i < 5; ++i) {
    h.Refine(q, executor);
    EXPECT_EQ(h.bucket_count(), buckets)
        << "re-learning an identical query must not add buckets";
  }
  EXPECT_NEAR(h.Estimate(q), 100.0, 1e-9);
}

TEST(STHolesTest, NestedQueriesBuildNestedBuckets) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 0, 100), 20, &data);
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 400, Budget(10));
  h.Refine(Box::Cube(2, 10, 90), executor);
  h.Refine(Box::Cube(2, 30, 70), executor);
  h.Refine(Box::Cube(2, 45, 55), executor);
  h.CheckInvariants();

  std::vector<STHoles::BucketInfo> dump = h.Dump();
  ASSERT_EQ(dump.size(), 4u);
  EXPECT_EQ(dump[1].depth, 1u);
  EXPECT_EQ(dump[2].depth, 2u);
  EXPECT_EQ(dump[3].depth, 3u);
}

TEST(STHolesTest, EstimateIsMonotoneInQueryNesting) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 25, 75), 20, &data);
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 400, Budget(8));
  Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    double x = rng.Uniform(0, 70), y = rng.Uniform(0, 70);
    h.Refine(Box({x, y}, {x + 30, y + 30}), executor);
  }
  for (int i = 0; i < 50; ++i) {
    double x = rng.Uniform(0, 60), y = rng.Uniform(0, 60);
    Box inner({x + 10, y + 10}, {x + 30, y + 30});
    Box outer({x, y}, {x + 40, y + 40});
    EXPECT_LE(h.Estimate(inner), h.Estimate(outer) + 1e-9);
  }
}

TEST(STHolesTest, AdjacentEqualDensitySiblingsMergeSeamlessly) {
  // Two adjacent boxes with identical density: the sibling merge has zero
  // penalty and zero swallowed parent region, so the merged bucket is their
  // exact union carrying their combined mass.
  Dataset data(2);
  FillUniformBlock(Box({10.0, 10.0}, {20.0, 20.0}), 10, &data);  // 100 pts.
  FillUniformBlock(Box({20.0, 10.0}, {30.0, 20.0}), 10, &data);  // 100 pts.
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 200, Budget(1));
  h.Refine(Box({10.0, 10.0}, {20.0, 20.0}), executor);
  h.Refine(Box({20.0, 10.0}, {30.0, 20.0}), executor);  // Forces a merge.
  h.CheckInvariants();

  ASSERT_EQ(h.bucket_count(), 1u);
  std::vector<STHoles::BucketInfo> dump = h.Dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[1].box, Box({10.0, 10.0}, {30.0, 20.0}));
  EXPECT_NEAR(dump[1].frequency, 200.0, 1e-9);
  EXPECT_NEAR(h.TotalFrequency(), 200.0, 1e-9);
}

TEST(STHolesTest, NestedBucketsCollapseViaParentChildMerge) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 10, 50), 20, &data);  // 400 points.
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 400, Budget(1));
  h.Refine(Box::Cube(2, 10, 50), executor);
  h.Refine(Box::Cube(2, 20, 40), executor);  // Nested hole, then merge.
  h.CheckInvariants();

  ASSERT_EQ(h.bucket_count(), 1u);
  EXPECT_NEAR(h.TotalFrequency(), 400.0, 1e-9);
  // Whatever pair merged, the remaining bucket plus root still answer the
  // outer region exactly (both candidate merges conserve its mass).
  EXPECT_NEAR(h.Estimate(Box::Cube(2, 10, 50)), 400.0, 1e-6);
}

TEST(STHolesTest, MergePicksTheCheaperVictim) {
  // A dense bucket and a sparse bucket: with budget 1, the merge must keep
  // the dense cluster distinct and fold the near-empty bucket into the root
  // (absorbing it costs almost nothing).
  Dataset data(2);
  FillUniformBlock(Box({10.0, 10.0}, {20.0, 20.0}), 20, &data);  // 400 pts.
  data.Append(Point{75.0, 75.0});  // One lonely point elsewhere.
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 401, Budget(1));
  h.Refine(Box({10.0, 10.0}, {20.0, 20.0}), executor);
  h.Refine(Box({70.0, 70.0}, {80.0, 80.0}), executor);
  h.CheckInvariants();

  ASSERT_EQ(h.bucket_count(), 1u);
  std::vector<STHoles::BucketInfo> dump = h.Dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[1].box, Box({10.0, 10.0}, {20.0, 20.0}))
      << "the dense bucket survives; the sparse one was absorbed";
  EXPECT_NEAR(dump[1].frequency, 400.0, 1e-9);
}

TEST(STHolesTest, ThreeWayMergeKeepsInvariantsAndMass) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 0, 100), 30, &data);  // 900 uniform points.
  Executor executor(data);

  STHoles h(Box::Cube(2, 0, 100), 900, Budget(2));
  h.Refine(Box({10.0, 10.0}, {20.0, 20.0}), executor);
  h.Refine(Box({40.0, 10.0}, {50.0, 20.0}), executor);
  h.Refine(Box({25.0, 5.0}, {35.0, 15.0}), executor);
  h.CheckInvariants();
  EXPECT_EQ(h.bucket_count(), 2u);
  EXPECT_NEAR(h.TotalFrequency(), 900.0, 1e-6);
}

// Merge choice is a total order. Four empty holes in the empty half of the
// domain form two adjacent pairs whose sibling merges both cost exactly 0
// (every other merge swallows data or empty space and costs more); the tie
// goes to the pair first by (parent walk position, i, j): slots 0 and 1.
TEST(STHolesTest, TiedSiblingMergesResolveToTheFirstSlots) {
  Dataset data(2);
  FillUniformBlock(Box({0.0, 0.0}, {50.0, 100.0}), 10, &data);  // 100 pts.
  Executor executor(data);

  const std::vector<Box> holes = {
      Box({60.0, 10.0}, {70.0, 20.0}), Box({70.0, 10.0}, {80.0, 20.0}),
      Box({60.0, 60.0}, {70.0, 70.0}), Box({70.0, 60.0}, {80.0, 70.0})};
  STHoles h(Box::Cube(2, 0, 100), 100, Budget(holes.size() - 1));
  for (const Box& hole : holes) h.Refine(hole, executor);
  h.CheckInvariants();

  ASSERT_EQ(h.bucket_count(), 3u);
  std::vector<STHoles::BucketInfo> dump = h.Dump();
  ASSERT_EQ(dump.size(), 4u);
  EXPECT_EQ(dump[1].box, holes[2]);
  EXPECT_EQ(dump[2].box, holes[3]);
  EXPECT_EQ(dump[3].box, Box({60.0, 10.0}, {80.0, 20.0}))
      << "the pair in slots 0 and 1 merged";
  EXPECT_EQ(dump[3].frequency, 0.0);
}

// The bucket index has one lifecycle: repeated estimates build it, every
// structural change invalidates it (here a drill that moves no child), and
// the next repeated estimates rebuild it. Every estimate along the way
// equals the linear scan bit for bit.
TEST(STHolesTest, DrillInvalidatesBuiltIndexAndEstimatesRebuildIt) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 0, 100), 10, &data);
  Executor executor(data);
  obs::MetricsRegistry registry;
  STHolesConfig config = Budget(10);
  config.metrics = &registry;
  STHoles h(Box::Cube(2, 0, 100), 100, config);
  h.Refine(Box::Cube(2, 10, 30), executor);
  const obs::Counter builds = registry.counter("index.bucket_tree.builds");
  const obs::Counter invalidations =
      registry.counter("index.bucket_tree.invalidations");

  auto estimate_twice = [&] {
    for (const Box& q : {Box::Cube(2, 5, 25), Box::Cube(2, 50, 80)}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(h.Estimate(q)),
                std::bit_cast<uint64_t>(h.EstimateLinear(q)))
          << q.ToString();
    }
  };
  estimate_twice();
  EXPECT_EQ(builds.value(), 1u);
  EXPECT_EQ(invalidations.value(), 0u);

  // Drills a hole into the root beside the existing child.
  h.Refine(Box::Cube(2, 60, 70), executor);
  ASSERT_EQ(h.bucket_count(), 2u);
  EXPECT_EQ(invalidations.value(), 1u);
  EXPECT_EQ(builds.value(), 1u);

  estimate_twice();
  EXPECT_EQ(builds.value(), 2u);
  h.CheckInvariants();
}

// Refine time is attributed per phase: every merge is preceded by exactly
// one timed merge search.
TEST(STHolesTest, MergeSearchIsTimedOncePerMerge) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 0, 100), 20, &data);
  Executor executor(data);
  obs::MetricsRegistry registry;
  STHolesConfig config = Budget(5);
  config.metrics = &registry;
  STHoles h(Box::Cube(2, 0, 100), 400, config);
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const double lo = rng.Uniform(0, 80);
    h.Refine(Box::Cube(2, lo, lo + rng.Uniform(5, 20)), executor);
  }
  EXPECT_EQ(h.bucket_count(), 5u);
  const uint64_t merges = registry.counter("histogram.stholes.merges").value();
  EXPECT_GT(merges, 0u);
  EXPECT_EQ(
      registry.latency("histogram.stholes.merge_search_seconds").count(),
      merges);
}

// Counts every call to the wrapped oracle.
class CountingOracle : public CardinalityOracle {
 public:
  explicit CountingOracle(const CardinalityOracle& inner) : inner_(inner) {}
  double Count(const Box& box) const override {
    ++calls;
    return inner_.Count(box);
  }
  mutable uint64_t calls = 0;

 private:
  const CardinalityOracle& inner_;
};

// The other refine phases are timed too: one observation per oracle count a
// refine makes (nested inside the drill timer) and one per candidate shrink
// (at least one per drill). Merge search reports its work in counters.
TEST(STHolesTest, OracleCountsShrinksAndMergeWorkAreRecorded) {
  Dataset data(2);
  FillUniformBlock(Box::Cube(2, 0, 100), 20, &data);
  Executor executor(data);
  CountingOracle counting(executor);
  obs::MetricsRegistry registry;
  STHolesConfig config = Budget(5);
  config.metrics = &registry;
  STHoles h(Box::Cube(2, 0, 100), 400, config);
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const double lo = rng.Uniform(0, 80);
    h.Refine(Box::Cube(2, lo, lo + rng.Uniform(5, 20)), counting);
  }
  EXPECT_GT(counting.calls, 0u);
  EXPECT_EQ(
      registry.latency("histogram.stholes.oracle_count_seconds").count(),
      counting.calls);
  const uint64_t drills =
      registry.latency("histogram.stholes.drill_seconds").count();
  EXPECT_GT(drills, 0u);
  EXPECT_GE(registry.latency("histogram.stholes.shrink_seconds").count(),
            drills);

  const uint64_t merges = registry.counter("histogram.stholes.merges").value();
  EXPECT_GT(merges, 0u);
  const uint64_t scored =
      registry.counter("histogram.stholes.merge_pairs_scored").value();
  EXPECT_GT(scored, 0u);
  // Every scored pair is offered to its row's ranking, and a re-ranked
  // row offers its unchanged pairs too.
  EXPECT_GE(registry.counter("histogram.stholes.merge_pairs_ranked").value(),
            scored);
  EXPECT_GT(
      registry.counter("histogram.stholes.merge_exact_evaluations").value(),
      0u);
}

TEST(STHolesTest, ZeroTotalTuplesIsValid) {
  STHoles h(Box::Cube(2, 0, 100), 0, Budget(5));
  EXPECT_DOUBLE_EQ(h.Estimate(Box::Cube(2, 0, 100)), 0.0);
}

}  // namespace
}  // namespace sthist
