#include "index/kdtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/rng.h"
#include "data/generators.h"

namespace sthist {
namespace {

TEST(KdTreeTest, EmptyDataset) {
  Dataset data(2);
  KdTree tree(data);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Count(Box::Cube(2, -100, 100)), 0u);
}

TEST(KdTreeTest, SinglePoint) {
  Dataset data(2);
  data.Append(Point{1.0, 2.0});
  KdTree tree(data);
  EXPECT_EQ(tree.Count(Box({0.0, 0.0}, {2.0, 3.0})), 1u);
  EXPECT_EQ(tree.Count(Box({5.0, 5.0}, {6.0, 6.0})), 0u);
  // Boundary point counts (closed intervals).
  EXPECT_EQ(tree.Count(Box({1.0, 2.0}, {9.0, 9.0})), 1u);
}

TEST(KdTreeTest, DuplicatePointsAllCounted) {
  Dataset data(2);
  for (int i = 0; i < 100; ++i) data.Append(Point{3.0, 3.0});
  KdTree tree(data, /*leaf_size=*/4);
  EXPECT_EQ(tree.Count(Box({2.0, 2.0}, {4.0, 4.0})), 100u);
  EXPECT_EQ(tree.Count(Box({3.5, 3.5}, {4.0, 4.0})), 0u);
}

TEST(KdTreeTest, CollectReturnsExactRows) {
  Dataset data(1);
  for (int i = 0; i < 10; ++i) data.Append(Point{static_cast<double>(i)});
  KdTree tree(data, /*leaf_size=*/2);
  std::vector<size_t> rows;
  tree.Collect(Box({2.5}, {6.5}), &rows);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<size_t>{3, 4, 5, 6}));
}

// Property sweep across dimensionalities and leaf sizes: the tree must agree
// with a naive scan on random data and random queries.
struct KdParam {
  size_t dim;
  size_t leaf_size;
  uint64_t seed;
};

class KdTreeAgreementTest : public ::testing::TestWithParam<KdParam> {};

TEST_P(KdTreeAgreementTest, MatchesNaiveScan) {
  const KdParam param = GetParam();
  Rng rng(param.seed);
  Dataset data(param.dim);
  Point p(param.dim);
  for (int i = 0; i < 2000; ++i) {
    for (size_t d = 0; d < param.dim; ++d) p[d] = rng.Uniform(0, 100);
    data.Append(p);
  }
  KdTree tree(data, param.leaf_size);

  for (int q = 0; q < 100; ++q) {
    std::vector<double> lo(param.dim), hi(param.dim);
    for (size_t d = 0; d < param.dim; ++d) {
      double a = rng.Uniform(0, 100), b = rng.Uniform(0, 100);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    Box box(lo, hi);
    EXPECT_EQ(tree.Count(box), data.CountInBox(box));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeAgreementTest,
    ::testing::Values(KdParam{1, 1, 1}, KdParam{1, 32, 2}, KdParam{2, 4, 3},
                      KdParam{3, 16, 4}, KdParam{5, 32, 5}, KdParam{7, 64, 6},
                      KdParam{2, 2048, 7} /* degenerates to a scan */));

// Tuples at integer grid coordinates, with duplicates, queried with faces on
// grid values: every query face then lies on data coordinates, and so on the
// tight bounds of many nodes, which random uniform queries almost never do.
// Intervals are closed, so a point or node bound on a face counts.
class KdTreeGridTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(KdTreeGridTest, SharedCoordinatesMatchScan) {
  const auto [dim, leaf_size] = GetParam();
  constexpr int kGrid = 5;
  Rng rng(100 * dim + leaf_size);
  Dataset data(dim);
  Point p(dim);
  for (int i = 0; i < 600; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      p[d] = static_cast<double>(rng.Int(0, kGrid - 1));
    }
    // Runs of exact duplicates, some longer than a leaf.
    const int64_t copies = rng.Bernoulli(0.1) ? rng.Int(2, 40) : 1;
    for (int64_t c = 0; c < copies; ++c) data.Append(p);
  }
  KdTree tree(data, leaf_size);
  ASSERT_EQ(tree.size(), data.size());

  // The data's tight bounds are the root's bounds.
  std::vector<double> min(dim, kGrid), max(dim, -1.0);
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t d = 0; d < dim; ++d) {
      min[d] = std::min(min[d], data.value(i, d));
      max[d] = std::max(max[d], data.value(i, d));
    }
  }
  std::vector<Box> queries = {Box(min, max)};
  for (size_t d = 0; d < dim; ++d) {
    // Zero-width slabs on the root's lower and upper faces.
    std::vector<double> lo = min, hi = max;
    hi[d] = min[d];
    queries.emplace_back(lo, hi);
    lo[d] = max[d];
    hi[d] = max[d];
    queries.emplace_back(lo, hi);
  }
  for (int q = 0; q < 300; ++q) {
    std::vector<double> lo(dim), hi(dim);
    for (size_t d = 0; d < dim; ++d) {
      // Faces on grid values, one past either end of the grid, or (one
      // query in four per dimension) a zero-width face on a grid value.
      double a = static_cast<double>(rng.Int(-1, kGrid));
      double b = static_cast<double>(rng.Int(-1, kGrid));
      if (rng.Bernoulli(0.25)) b = a;
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    queries.emplace_back(lo, hi);
  }

  for (const Box& box : queries) {
    const size_t expected = data.CountInBox(box);
    EXPECT_EQ(tree.Count(box), expected) << box.ToString();
    std::vector<size_t> collected;
    tree.Collect(box, &collected);
    std::sort(collected.begin(), collected.end());
    std::vector<size_t> scanned;
    for (size_t i = 0; i < data.size(); ++i) {
      if (box.ContainsPoint(data.row(i))) scanned.push_back(i);
    }
    ASSERT_EQ(scanned.size(), expected);
    EXPECT_EQ(collected, scanned) << box.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndLeaves, KdTreeGridTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 4, 5, 6),
                       ::testing::Values<size_t>(1, 4, 32)));

TEST(KdTreeTest, ClusteredDataAgreesWithScan) {
  CrossConfig config;
  config.tuples_per_cluster = 2000;
  config.noise_tuples = 400;
  GeneratedData g = MakeCross(config);
  KdTree tree(g.data);
  Rng rng(17);
  for (int q = 0; q < 50; ++q) {
    std::vector<double> lo(2), hi(2);
    for (size_t d = 0; d < 2; ++d) {
      double a = rng.Uniform(0, 1000), b = rng.Uniform(0, 1000);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    Box box(lo, hi);
    EXPECT_EQ(tree.Count(box), g.data.CountInBox(box));
  }
}

TEST(KdTreeTest, FullDomainQueryCountsEverything) {
  GaussConfig config;
  config.cluster_tuples = 3000;
  config.noise_tuples = 300;
  GeneratedData g = MakeGauss(config);
  KdTree tree(g.data);
  EXPECT_EQ(tree.Count(g.domain), g.data.size());
}

}  // namespace
}  // namespace sthist
