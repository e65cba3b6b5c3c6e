#include "clustering/clique.h"

#include <gtest/gtest.h>

#include <set>

#include "core/rng.h"
#include "data/generators.h"

namespace sthist {
namespace {

TEST(CliqueTest, EmptyDatasetYieldsNoClusters) {
  Dataset data(2);
  CliqueClusterer clique((CliqueConfig()));
  EXPECT_TRUE(clique.Cluster(data, Box::Cube(2, 0, 100)).empty());
}

TEST(CliqueTest, FindsASingleDenseBlock) {
  // 80% of the mass in one square block, the rest uniform.
  Dataset data(2);
  Rng rng(3);
  Point p(2);
  for (int i = 0; i < 8000; ++i) {
    p[0] = rng.Uniform(200, 400);
    p[1] = rng.Uniform(600, 800);
    data.Append(p);
  }
  for (int i = 0; i < 2000; ++i) {
    p[0] = rng.Uniform(0, 1000);
    p[1] = rng.Uniform(0, 1000);
    data.Append(p);
  }
  CliqueClusterer clique((CliqueConfig()));
  std::vector<SubspaceCluster> clusters =
      clique.Cluster(data, Box::Cube(2, 0, 1000));
  ASSERT_FALSE(clusters.empty());
  const SubspaceCluster& top = clusters.front();
  EXPECT_EQ(top.relevant_dims, (std::vector<size_t>{0, 1}));
  EXPECT_GT(top.members.size(), 6000u);
  EXPECT_TRUE(Box({150.0, 550.0}, {450.0, 850.0}).Contains(top.core_box));
}

TEST(CliqueTest, CrossBecomesOneConnectedComponent) {
  // Grid-connectivity clustering sees the cross as a single connected dense
  // region in the full 2-d space: the arms meet in the middle. (This is the
  // structural difference to MineClus, whose rectangular clusters separate
  // the bands — and one reason MineClus initializes histograms better.)
  CrossConfig config;
  config.tuples_per_cluster = 5000;
  config.noise_tuples = 1000;
  GeneratedData g = MakeCross(config);
  CliqueClusterer clique((CliqueConfig()));
  std::vector<SubspaceCluster> clusters = clique.Cluster(g.data, g.domain);

  ASSERT_FALSE(clusters.empty());
  const SubspaceCluster& top = clusters.front();
  EXPECT_EQ(top.relevant_dims, (std::vector<size_t>{0, 1}));
  EXPECT_GT(top.members.size(), 9000u) << "both bands plus the crossing";
}

TEST(CliqueTest, ParallelBandsSeparateIntoComponents) {
  // Two parallel horizontal bands: disconnected in the grid, so CLIQUE
  // reports two clusters whose bounding boxes span the full x range.
  Dataset data(2);
  Rng rng(7);
  Point p(2);
  for (int band = 0; band < 2; ++band) {
    double y_lo = band == 0 ? 150.0 : 750.0;
    for (int i = 0; i < 4000; ++i) {
      p[0] = rng.Uniform(0, 1000);
      p[1] = rng.Uniform(y_lo, y_lo + 60.0);
      data.Append(p);
    }
  }
  Box domain = Box::Cube(2, 0, 1000);
  CliqueClusterer clique((CliqueConfig()));
  std::vector<SubspaceCluster> clusters = clique.Cluster(data, domain);

  size_t band_like = 0;
  for (const SubspaceCluster& c : clusters) {
    if (c.members.size() > 3000 &&
        c.core_box.Extent(0) > 0.9 * domain.Extent(0) &&
        c.core_box.Extent(1) < 0.2 * domain.Extent(1)) {
      ++band_like;
    }
  }
  EXPECT_EQ(band_like, 2u);
}

TEST(CliqueTest, MembersLieInTheCoreBox) {
  GaussConfig config;
  config.cluster_tuples = 10000;
  config.noise_tuples = 1000;
  GeneratedData g = MakeGauss(config);
  CliqueClusterer clique((CliqueConfig()));
  std::vector<SubspaceCluster> clusters = clique.Cluster(g.data, g.domain);
  ASSERT_FALSE(clusters.empty());
  for (const SubspaceCluster& c : clusters) {
    for (size_t row : c.members) {
      EXPECT_TRUE(c.core_box.ContainsPoint(g.data.row(row)));
    }
  }
}

TEST(CliqueTest, ScoresAreSortedDescending) {
  GaussConfig config;
  config.cluster_tuples = 8000;
  config.noise_tuples = 800;
  GeneratedData g = MakeGauss(config);
  CliqueClusterer clique((CliqueConfig()));
  std::vector<SubspaceCluster> clusters = clique.Cluster(g.data, g.domain);
  for (size_t i = 1; i < clusters.size(); ++i) {
    EXPECT_GE(clusters[i - 1].score, clusters[i].score);
  }
}

TEST(CliqueTest, MaxDimsCapsSubspaceSize) {
  GaussConfig config;
  config.cluster_tuples = 6000;
  config.noise_tuples = 600;
  GeneratedData g = MakeGauss(config);
  CliqueConfig cc;
  cc.max_dims = 2;
  CliqueClusterer clique(cc);
  for (const SubspaceCluster& c : clique.Cluster(g.data, g.domain)) {
    EXPECT_LE(c.relevant_dims.size(), 2u);
  }
}

TEST(CliqueTest, MaxClustersCapIsHonored) {
  GaussConfig config;
  config.cluster_tuples = 6000;
  config.noise_tuples = 600;
  GeneratedData g = MakeGauss(config);
  CliqueConfig cc;
  cc.max_clusters = 2;
  CliqueClusterer clique(cc);
  EXPECT_LE(clique.Cluster(g.data, g.domain).size(), 2u);
}

TEST(CliqueTest, PureNoiseYieldsNothingHuge) {
  Dataset data(3);
  Rng rng(9);
  Point p(3);
  for (int i = 0; i < 5000; ++i) {
    for (size_t d = 0; d < 3; ++d) p[d] = rng.Uniform(0, 1000);
    data.Append(p);
  }
  CliqueClusterer clique((CliqueConfig()));
  std::vector<SubspaceCluster> clusters =
      clique.Cluster(data, Box::Cube(3, 0, 1000));
  // Uniform data sits right at the uniform expectation; the 1.5x adaptive
  // threshold admits at most borderline fluctuations, never most of the
  // data as one cluster.
  for (const SubspaceCluster& c : clusters) {
    EXPECT_LT(c.members.size(), 2500u);
  }
}

// Out-of-range settings are reported by Validate, which the constructor
// CHECKs.
TEST(CliqueTest, ValidateRejectsOutOfRangeSettings) {
  EXPECT_TRUE(Validate(CliqueConfig{}).ok());
  CliqueConfig config;
  config.xi = 1;
  EXPECT_EQ(Validate(config).code(), StatusCode::kInvalidArgument);
  config = CliqueConfig{};
  config.tau = 0.0;
  EXPECT_EQ(Validate(config).code(), StatusCode::kInvalidArgument);
  config = CliqueConfig{};
  config.max_dims = 0;
  EXPECT_EQ(Validate(config).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sthist
