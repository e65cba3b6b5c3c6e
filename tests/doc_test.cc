#include "clustering/doc.h"

#include <gtest/gtest.h>

#include "clustering/clique.h"

#include <cmath>
#include <set>

#include "core/rng.h"
#include "data/generators.h"

namespace sthist {
namespace {

TEST(DocTest, RecoversCrossBands) {
  CrossConfig config;
  config.tuples_per_cluster = 5000;
  config.noise_tuples = 1000;
  GeneratedData g = MakeCross(config);

  DocConfig dc;
  dc.alpha = 0.05;
  DocClusterer doc(dc);
  std::vector<SubspaceCluster> clusters = doc.Cluster(g.data, g.domain);

  ASSERT_GE(clusters.size(), 2u);
  std::set<size_t> band_dims;
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(clusters[i].relevant_dims.size(), 1u);
    band_dims.insert(clusters[i].relevant_dims[0]);
  }
  EXPECT_EQ(band_dims, (std::set<size_t>{0, 1}));
}

TEST(DocTest, AlphaIsRespected) {
  GaussConfig config;
  config.cluster_tuples = 6000;
  config.noise_tuples = 600;
  GeneratedData g = MakeGauss(config);
  DocConfig dc;
  dc.alpha = 0.08;
  DocClusterer doc(dc);
  const double min_size = dc.alpha * static_cast<double>(g.data.size());
  for (const SubspaceCluster& c : doc.Cluster(g.data, g.domain)) {
    EXPECT_GE(static_cast<double>(c.members.size()), min_size);
  }
}

TEST(DocTest, MembersAreDisjoint) {
  GaussConfig config;
  config.cluster_tuples = 6000;
  config.noise_tuples = 600;
  GeneratedData g = MakeGauss(config);
  DocClusterer doc((DocConfig()));
  std::set<size_t> seen;
  for (const SubspaceCluster& c : doc.Cluster(g.data, g.domain)) {
    for (size_t row : c.members) {
      EXPECT_TRUE(seen.insert(row).second);
    }
  }
}

TEST(DocTest, DeterministicForSeed) {
  CrossConfig config;
  config.tuples_per_cluster = 2000;
  config.noise_tuples = 400;
  GeneratedData g = MakeCross(config);
  DocClusterer doc((DocConfig()));
  std::vector<SubspaceCluster> a = doc.Cluster(g.data, g.domain);
  std::vector<SubspaceCluster> b = doc.Cluster(g.data, g.domain);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].relevant_dims, b[i].relevant_dims);
    EXPECT_EQ(a[i].members.size(), b[i].members.size());
  }
}

TEST(DocTest, ScoreMatchesMuFormula) {
  GaussConfig config;
  config.cluster_tuples = 4000;
  config.noise_tuples = 400;
  GeneratedData g = MakeGauss(config);
  DocConfig dc;
  dc.beta = 0.5;
  DocClusterer doc(dc);
  for (const SubspaceCluster& c : doc.Cluster(g.data, g.domain)) {
    double mu = static_cast<double>(c.members.size()) *
                std::pow(2.0, static_cast<double>(c.relevant_dims.size()));
    EXPECT_DOUBLE_EQ(c.score, mu);
  }
}

TEST(ClustererInterfaceTest, AllThreeImplementationsRun) {
  CrossConfig config;
  config.tuples_per_cluster = 2000;
  config.noise_tuples = 400;
  GeneratedData g = MakeCross(config);

  MineClusConfig mc;
  mc.alpha = 0.05;
  std::vector<std::unique_ptr<SubspaceClusterer>> clusterers;
  clusterers.push_back(std::make_unique<MineClusClusterer>(mc));
  clusterers.push_back(std::make_unique<CliqueClusterer>(CliqueConfig{}));
  clusterers.push_back(std::make_unique<DocClusterer>(DocConfig{}));

  std::set<std::string> names;
  for (const auto& clusterer : clusterers) {
    names.insert(clusterer->name());
    std::vector<SubspaceCluster> clusters =
        clusterer->Cluster(g.data, g.domain);
    EXPECT_FALSE(clusters.empty()) << clusterer->name();
  }
  EXPECT_EQ(names, (std::set<std::string>{"mineclus", "clique", "doc"}));
}

// Out-of-range settings are reported by Validate, which the constructor
// CHECKs.
TEST(DocTest, ValidateRejectsOutOfRangeSettings) {
  EXPECT_TRUE(Validate(DocConfig{}).ok());
  DocConfig config;
  config.alpha = 0.0;
  EXPECT_EQ(Validate(config).code(), StatusCode::kInvalidArgument);
  config = DocConfig{};
  config.width_fraction = 0.0;
  EXPECT_EQ(Validate(config).code(), StatusCode::kInvalidArgument);
  config = DocConfig{};
  config.discriminating_set_size = 0;
  EXPECT_EQ(Validate(config).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sthist
