#include <gtest/gtest.h>

#include "data/generators.h"
#include "histogram/stholes.h"
#include "workload/query.h"

namespace sthist {
namespace {

STHolesConfig Budget(size_t buckets) {
  STHolesConfig config;
  config.max_buckets = buckets;
  return config;
}

// A histogram restored from its binary snapshot is a live histogram, not a
// frozen copy: it keeps refining from feedback under its own budget.
TEST(SerializeTest, DeserializedHistogramKeepsLearning) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 1000;
  data_config.noise_tuples = 200;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);

  STHoles h(g.domain, static_cast<double>(g.data.size()), Budget(20));
  h.Refine(Box::Cube(2, 400, 600), executor);
  StatusOr<std::unique_ptr<STHoles>> loaded =
      STHoles::DeserializeBinary(h.SerializeBinary(), Budget(20));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  (*loaded)->Refine(Box::Cube(2, 100, 300), executor);
  (*loaded)->CheckInvariants();
  EXPECT_GT((*loaded)->bucket_count(), h.bucket_count() - 1);
}

}  // namespace
}  // namespace sthist
