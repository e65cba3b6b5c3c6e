#include "bench_common.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.h"

namespace sthist::bench {
namespace {

obs::MetricsSnapshot::LatencyValue Observed(
    const std::vector<double>& seconds) {
  obs::MetricsRegistry registry;
  obs::LatencyHistogram latency = registry.latency("op_seconds");
  for (double s : seconds) latency.Observe(s);
  return registry.Snapshot().latencies.at(0);
}

// One 10 µs observation lands in the bucket bounded by 16 µs; the p99 must
// not exceed the largest observation.
TEST(ApproxP99SecondsTest, NeverExceedsTheMax) {
  EXPECT_EQ(ApproxP99Seconds(Observed({10e-6})), 10e-6);
}

// 99 observations of 3 µs and one of 1 ms: the p99 is the upper bound of
// the 3 µs bucket, 4 µs.
TEST(ApproxP99SecondsTest, ReportsTheBucketBoundBelowTheMax) {
  std::vector<double> seconds(99, 3e-6);
  seconds.push_back(1e-3);
  EXPECT_EQ(ApproxP99Seconds(Observed(seconds)), 4e-6);
}

TEST(ApproxP99SecondsTest, OverflowReportsTheMaxAndEmptyReportsZero) {
  EXPECT_EQ(ApproxP99Seconds(Observed({100.0})), 100.0);
  EXPECT_EQ(ApproxP99Seconds(Observed({})), 0.0);
}

// --seed belongs to bench_serve alone: a harness that parses only the
// shared flags refuses it like any unknown argument.
TEST(ParseBenchOptionsDeathTest, RefusesSeed) {
  char name[] = "bench", flag[] = "--seed", value[] = "5";
  char* argv[] = {name, flag, value, nullptr};
  EXPECT_EXIT(ParseBenchOptions(3, argv), ::testing::ExitedWithCode(2),
              "unknown argument: --seed");
}

TEST(ExtractCountFlagTest, RemovesTheFlagAndItsValue) {
  char name[] = "bench", threads[] = "--threads", two[] = "2",
       flag[] = "--seed", seven[] = "7";
  char* argv[] = {name, threads, two, flag, seven, nullptr};
  int argc = 5;
  EXPECT_EQ(ExtractCountFlag(&argc, argv, "--seed"), 7u);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--threads");
  EXPECT_STREQ(argv[2], "2");
  EXPECT_EQ(ExtractCountFlag(&argc, argv, "--seed"), 0u);
  EXPECT_EQ(argc, 3);
}

}  // namespace
}  // namespace sthist::bench
