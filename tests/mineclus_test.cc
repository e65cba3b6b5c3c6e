#include "clustering/mineclus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "data/generators.h"

namespace sthist {
namespace {

bool SameDims(const std::vector<size_t>& a, const std::vector<size_t>& b) {
  return a == b;
}

TEST(MineClusTest, RecoversCrossBands) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 5000;
  data_config.noise_tuples = 1000;
  GeneratedData g = MakeCross(data_config);

  MineClusConfig config;
  config.alpha = 0.05;
  config.beta = 0.25;
  config.width_fraction = 0.05;
  std::vector<SubspaceCluster> clusters =
      RunMineClus(g.data, g.domain, config);

  ASSERT_GE(clusters.size(), 2u);
  // The two top clusters must be the two 1-dimensional bands (relevant dim
  // 0 for the vertical band, 1 for the horizontal one).
  std::set<size_t> seen;
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(clusters[i].relevant_dims.size(), 1u)
        << "band clusters are one-dimensional";
    seen.insert(clusters[i].relevant_dims[0]);
    EXPECT_GT(clusters[i].members.size(), 4000u)
        << "most of a band's 5000 tuples are recovered";
  }
  EXPECT_EQ(seen, (std::set<size_t>{0, 1}));
}

TEST(MineClusTest, ScoresAreSortedDescending) {
  GaussConfig data_config;
  data_config.cluster_tuples = 8000;
  data_config.noise_tuples = 800;
  GeneratedData g = MakeGauss(data_config);
  std::vector<SubspaceCluster> clusters =
      RunMineClus(g.data, g.domain, MineClusConfig{});
  for (size_t i = 1; i < clusters.size(); ++i) {
    EXPECT_GE(clusters[i - 1].score, clusters[i].score);
  }
}

TEST(MineClusTest, ScoreMatchesMuFormula) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 2000;
  data_config.noise_tuples = 200;
  GeneratedData g = MakeCross(data_config);
  MineClusConfig config;
  config.beta = 0.5;
  std::vector<SubspaceCluster> clusters =
      RunMineClus(g.data, g.domain, config);
  for (const SubspaceCluster& c : clusters) {
    double mu = static_cast<double>(c.members.size()) *
                std::pow(1.0 / config.beta,
                         static_cast<double>(c.relevant_dims.size()));
    EXPECT_DOUBLE_EQ(c.score, mu);
  }
}

TEST(MineClusTest, AlphaThresholdIsRespected) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 2000;
  data_config.noise_tuples = 500;
  GeneratedData g = MakeCross(data_config);
  MineClusConfig config;
  config.alpha = 0.10;
  config.merge_similar = false;
  std::vector<SubspaceCluster> clusters =
      RunMineClus(g.data, g.domain, config);
  const double min_size = config.alpha * static_cast<double>(g.data.size());
  for (const SubspaceCluster& c : clusters) {
    EXPECT_GE(static_cast<double>(c.members.size()), min_size);
  }
}

TEST(MineClusTest, MembersAreDisjointAcrossClusters) {
  GaussConfig data_config;
  data_config.cluster_tuples = 6000;
  data_config.noise_tuples = 600;
  GeneratedData g = MakeGauss(data_config);
  MineClusConfig config;
  config.merge_similar = false;
  std::vector<SubspaceCluster> clusters =
      RunMineClus(g.data, g.domain, config);
  std::set<size_t> seen;
  for (const SubspaceCluster& c : clusters) {
    for (size_t row : c.members) {
      EXPECT_TRUE(seen.insert(row).second)
          << "greedy extraction removes members from the pool";
    }
  }
}

TEST(MineClusTest, CoreBoxBoundsMembers) {
  GaussConfig data_config;
  data_config.cluster_tuples = 4000;
  data_config.noise_tuples = 400;
  GeneratedData g = MakeGauss(data_config);
  std::vector<SubspaceCluster> clusters =
      RunMineClus(g.data, g.domain, MineClusConfig{});
  ASSERT_FALSE(clusters.empty());
  for (const SubspaceCluster& c : clusters) {
    for (size_t row : c.members) {
      EXPECT_TRUE(c.core_box.ContainsPoint(g.data.row(row)));
    }
  }
}

TEST(MineClusTest, RecoversPlantedSubspaceDimsOnGauss) {
  GaussConfig data_config;
  data_config.cluster_tuples = 20000;
  data_config.noise_tuples = 2000;
  data_config.num_clusters = 5;
  GeneratedData g = MakeGauss(data_config);

  MineClusConfig config;
  config.alpha = 0.02;
  config.beta = 0.25;
  config.width_fraction = 0.06;
  std::vector<SubspaceCluster> clusters =
      RunMineClus(g.data, g.domain, config);

  // At least half of the planted clusters should be recovered with exactly
  // their relevant dimensions.
  size_t recovered = 0;
  for (const PlantedCluster& truth : g.truth) {
    for (const SubspaceCluster& found : clusters) {
      if (SameDims(found.relevant_dims, truth.relevant_dims) &&
          found.core_box.Intersects(truth.extent)) {
        ++recovered;
        break;
      }
    }
  }
  EXPECT_GE(recovered, g.truth.size() / 2)
      << "found " << recovered << " of " << g.truth.size();
}

TEST(MineClusTest, MaxClustersCapIsHonored) {
  GaussConfig data_config;
  data_config.cluster_tuples = 6000;
  data_config.noise_tuples = 600;
  GeneratedData g = MakeGauss(data_config);
  MineClusConfig config;
  config.max_clusters = 3;
  config.merge_similar = false;
  std::vector<SubspaceCluster> clusters =
      RunMineClus(g.data, g.domain, config);
  EXPECT_LE(clusters.size(), 3u);
}

TEST(MineClusTest, DeterministicForSeed) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 1500;
  data_config.noise_tuples = 300;
  GeneratedData g = MakeCross(data_config);
  std::vector<SubspaceCluster> a =
      RunMineClus(g.data, g.domain, MineClusConfig{});
  std::vector<SubspaceCluster> b =
      RunMineClus(g.data, g.domain, MineClusConfig{});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].relevant_dims, b[i].relevant_dims);
    EXPECT_EQ(a[i].members, b[i].members);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

// Out-of-range settings are reported by Validate, which RunMineClus CHECKs.
TEST(MineClusTest, ValidateRejectsOutOfRangeSettings) {
  EXPECT_TRUE(Validate(MineClusConfig{}).ok());
  MineClusConfig config;
  config.alpha = 5.0;
  EXPECT_EQ(Validate(config).code(), StatusCode::kInvalidArgument);
  config = MineClusConfig{};
  config.beta = 0.0;
  EXPECT_EQ(Validate(config).code(), StatusCode::kInvalidArgument);
  config = MineClusConfig{};
  config.width_fraction = 0.0;
  EXPECT_EQ(Validate(config).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sthist
