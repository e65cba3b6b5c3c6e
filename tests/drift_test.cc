// Determinism and structure battery for the drifting workload generators
// (workload/drift.h). Drift schedules feed the serving layer's stagnation
// tests and the CI drift smoke, so the load-bearing property is replayability:
// equal configs must produce bitwise-identical schedules (data and queries)
// regardless of caller threading, and the golden-trajectory hashes pin the
// exact streams so an accidental generator change cannot slip through as
// "still deterministic, just different".

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/box.h"
#include "workload/drift.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

// FNV-1a over the exact bit patterns of a double stream: collision-resistant
// enough to pin a trajectory, and any representational change (not just a
// value change) moves it.
class BitHasher {
 public:
  void Fold(double v) {
    uint64_t bits = std::bit_cast<uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Fold(const Box& box) {
    for (size_t d = 0; d < box.dim(); ++d) {
      Fold(box.lo(d));
      Fold(box.hi(d));
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

DriftConfig BaseConfig(DriftScenario scenario) {
  DriftConfig dc;
  dc.scenario = scenario;
  dc.phases = 3;
  dc.seed = 17;
  dc.dim = 2;
  dc.tuples = 2200;  // Small: the battery builds many schedules.
  return dc;
}

WorkloadConfig BaseWorkload() {
  WorkloadConfig wc;
  wc.num_queries = 40;
  wc.volume_fraction = 0.01;
  return wc;
}

const DriftScenario kAllScenarios[] = {
    DriftScenario::kMovingCross, DriftScenario::kClusterChurn,
    DriftScenario::kHotspot, DriftScenario::kAdversarial};

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSchedulesBitwiseEqual(const DriftSchedule& a,
                                 const DriftSchedule& b) {
  ASSERT_EQ(a.phase_count(), b.phase_count());
  ASSERT_EQ(a.domain(), b.domain());
  for (size_t p = 0; p < a.phase_count(); ++p) {
    const DriftPhase& pa = a.phase(p);
    const DriftPhase& pb = b.phase(p);
    ASSERT_EQ(pa.data.data.size(), pb.data.data.size()) << "phase " << p;
    ASSERT_EQ(pa.data.data.dim(), pb.data.data.dim());
    for (size_t i = 0; i < pa.data.data.size(); ++i) {
      for (size_t d = 0; d < pa.data.data.dim(); ++d) {
        ASSERT_TRUE(
            BitEqual(pa.data.data.value(i, d), pb.data.data.value(i, d)))
            << "phase " << p << " tuple " << i << " dim " << d;
      }
    }
    ASSERT_EQ(pa.queries.size(), pb.queries.size()) << "phase " << p;
    for (size_t q = 0; q < pa.queries.size(); ++q) {
      ASSERT_EQ(pa.queries[q], pb.queries[q])
          << "phase " << p << " query " << q;
    }
  }
}

TEST(DriftTest, ParseRoundTripsEveryScenarioName) {
  for (DriftScenario s : kAllScenarios) {
    StatusOr<DriftScenario> parsed = ParseDriftScenario(DriftScenarioName(s));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(ParseDriftScenario("no-such-drift").ok());
  EXPECT_FALSE(ParseDriftScenario("").ok());
}

TEST(DriftTest, ValidateRejectsBadConfigs) {
  DriftConfig dc = BaseConfig(DriftScenario::kMovingCross);
  EXPECT_TRUE(Validate(dc).ok());

  DriftConfig bad = dc;
  bad.phases = 0;
  EXPECT_FALSE(Validate(bad).ok());
  bad = dc;
  bad.dim = 1;
  EXPECT_FALSE(Validate(bad).ok());
  bad = dc;
  bad.tuples = 10;
  EXPECT_FALSE(Validate(bad).ok());
  bad = dc;
  bad.move_span = 1.0;
  EXPECT_FALSE(Validate(bad).ok());
  bad = dc;
  bad.churn_active = kChurnPool + 1;
  EXPECT_FALSE(Validate(bad).ok());
  bad = dc;
  bad.hotspot_volume_fraction = 0.0;
  EXPECT_FALSE(Validate(bad).ok());
}

// The core replayability contract: same config -> bitwise-identical phases.
TEST(DriftTest, RegenerationIsBitwiseIdentical) {
  for (DriftScenario s : kAllScenarios) {
    DriftConfig dc = BaseConfig(s);
    StatusOr<DriftSchedule> a = MakeDriftSchedule(dc, BaseWorkload());
    StatusOr<DriftSchedule> b = MakeDriftSchedule(dc, BaseWorkload());
    ASSERT_TRUE(a.ok()) << DriftScenarioName(s);
    ASSERT_TRUE(b.ok()) << DriftScenarioName(s);
    ExpectSchedulesBitwiseEqual(*a, *b);
  }
}

// Generation must not depend on ambient threading: schedules built on four
// racing threads equal the serially built one.
TEST(DriftTest, ConcurrentGenerationEqualsSerial) {
  DriftConfig dc = BaseConfig(DriftScenario::kMovingCross);
  StatusOr<DriftSchedule> serial = MakeDriftSchedule(dc, BaseWorkload());
  ASSERT_TRUE(serial.ok());

  constexpr size_t kThreads = 4;
  std::vector<StatusOr<DriftSchedule>> results;
  results.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    results.push_back(Status::Unavailable("not built yet"));
  }
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = MakeDriftSchedule(dc, BaseWorkload()); });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok());
    ExpectSchedulesBitwiseEqual(*serial, *results[t]);
  }
}

TEST(DriftTest, SeedsAndPhasesChangeTheStream) {
  DriftConfig dc = BaseConfig(DriftScenario::kMovingCross);
  StatusOr<DriftSchedule> base = MakeDriftSchedule(dc, BaseWorkload());
  ASSERT_TRUE(base.ok());

  DriftConfig reseeded = dc;
  reseeded.seed = dc.seed + 1;
  StatusOr<DriftSchedule> other = MakeDriftSchedule(reseeded, BaseWorkload());
  ASSERT_TRUE(other.ok());
  // Some query in phase 0 must differ — seed sensitivity.
  bool differs = false;
  for (size_t q = 0; q < base->phase(0).queries.size() && !differs; ++q) {
    differs = !(base->phase(0).queries[q] == other->phase(0).queries[q]);
  }
  EXPECT_TRUE(differs) << "reseeding left the query stream unchanged";

  // Distinct phases of one schedule must not repeat each other's queries.
  bool phases_differ = false;
  for (size_t q = 0; q < base->phase(0).queries.size() && !phases_differ;
       ++q) {
    phases_differ = !(base->phase(0).queries[q] == base->phase(1).queries[q]);
  }
  EXPECT_TRUE(phases_differ) << "phases replay identical query streams";
}

// Scenario structure: the properties each generator exists to provide.

TEST(DriftTest, MovingCrossActuallyMovesTheData) {
  DriftConfig dc = BaseConfig(DriftScenario::kMovingCross);
  StatusOr<DriftSchedule> sched = MakeDriftSchedule(dc, BaseWorkload());
  ASSERT_TRUE(sched.ok());
  // Same tuple count per phase, shifted positions: the mean of dimension 0
  // must strictly increase with the phase (centers travel lo -> hi).
  double prev_mean = -1e300;
  for (size_t p = 0; p < sched->phase_count(); ++p) {
    const Dataset& data = sched->phase(p).data.data;
    ASSERT_GT(data.size(), 0u);
    double mean = 0.0;
    for (size_t i = 0; i < data.size(); ++i) mean += data.value(i, 0);
    mean /= static_cast<double>(data.size());
    EXPECT_GT(mean, prev_mean) << "phase " << p << " did not move";
    prev_mean = mean;
  }
}

TEST(DriftTest, HotspotKeepsDataFixedAndConcentratesQueries) {
  DriftConfig dc = BaseConfig(DriftScenario::kHotspot);
  StatusOr<DriftSchedule> sched = MakeDriftSchedule(dc, BaseWorkload());
  ASSERT_TRUE(sched.ok());
  const Dataset& first = sched->phase(0).data.data;
  for (size_t p = 1; p < sched->phase_count(); ++p) {
    const Dataset& data = sched->phase(p).data.data;
    ASSERT_EQ(data.size(), first.size());
    for (size_t i = 0; i < data.size(); ++i) {
      for (size_t d = 0; d < data.dim(); ++d) {
        ASSERT_TRUE(BitEqual(data.value(i, d), first.value(i, d)))
            << "hotspot drift must not move the data";
      }
    }
  }
  // Each phase's queries cluster inside a hotspot far smaller than the
  // domain: their joint bounding box has a small volume fraction.
  for (size_t p = 0; p < sched->phase_count(); ++p) {
    const Workload& queries = sched->phase(p).queries;
    ASSERT_FALSE(queries.empty());
    Box hull = queries[0];
    for (const Box& q : queries) hull.ExtendToContain(q);
    EXPECT_LT(hull.Volume() / sched->domain().Volume(), 0.5)
        << "phase " << p << " queries are not concentrated";
  }
}

TEST(DriftTest, AdversarialReordersAFixedQuerySet) {
  DriftConfig dc = BaseConfig(DriftScenario::kAdversarial);
  StatusOr<DriftSchedule> sched = MakeDriftSchedule(dc, BaseWorkload());
  ASSERT_TRUE(sched.ok());
  ASSERT_GE(sched->phase_count(), 2u);
  const Workload& a = sched->phase(0).queries;
  // Order within a phase follows the phase's sweep: phase 0 ascends on
  // dimension 0's lower bound, phase 1 descends on dimension 1's.
  for (size_t q = 1; q < a.size(); ++q) {
    EXPECT_LE(a[q - 1].lo(0), a[q].lo(0)) << "phase 0 must ascend";
  }
  const Workload& b = sched->phase(1).queries;
  for (size_t q = 1; q < b.size(); ++q) {
    EXPECT_GE(b[q - 1].lo(1), b[q].lo(1)) << "phase 1 must descend";
  }
}

TEST(DriftTest, ChurnPhasesShareTheirDomain) {
  DriftConfig dc = BaseConfig(DriftScenario::kClusterChurn);
  StatusOr<DriftSchedule> sched = MakeDriftSchedule(dc, BaseWorkload());
  ASSERT_TRUE(sched.ok());
  for (size_t p = 0; p < sched->phase_count(); ++p) {
    const Dataset& data = sched->phase(p).data.data;
    ASSERT_GT(data.size(), 0u);
    EXPECT_TRUE(sched->domain().Contains(data.Bounds()))
        << "phase " << p << " escapes the shared domain";
    EXPECT_FALSE(sched->phase(p).data.truth.empty())
        << "churn phases carry planted truth";
  }
}

TEST(DriftTest, PhasedOracleAnswersFromTheActivePhase) {
  DriftConfig dc = BaseConfig(DriftScenario::kMovingCross);
  StatusOr<DriftSchedule> sched = MakeDriftSchedule(dc, BaseWorkload());
  ASSERT_TRUE(sched.ok());
  PhasedOracle oracle(*sched);
  ASSERT_EQ(oracle.phase_count(), sched->phase_count());
  for (size_t p = 0; p < sched->phase_count(); ++p) {
    oracle.SetPhase(p);
    EXPECT_EQ(oracle.phase(), p);
    Executor reference(sched->phase(p).data.data);
    for (const Box& q : sched->phase(p).queries) {
      ASSERT_TRUE(BitEqual(oracle.Count(q), reference.Count(q)))
          << "phase " << p << " count diverged from a fresh executor";
    }
    // The full domain returns the phase's tuple count.
    EXPECT_DOUBLE_EQ(oracle.Count(sched->domain()),
                     static_cast<double>(sched->phase(p).data.data.size()));
  }
}

// Golden trajectories: FNV-1a over the bit patterns of every query box of
// each phase, chained across phases. These constants pin the exact streams
// the CI drift smoke and the serving tests replay; regenerate them
// deliberately (print the actual on failure) when the generator is
// intentionally changed.
TEST(DriftTest, GoldenTrajectoriesPinTheQueryStreams) {
  struct Golden {
    DriftScenario scenario;
    uint64_t hash;
  };
  const Golden kGolden[] = {
      {DriftScenario::kMovingCross, 0xdf1134fa8234e3ceull},
      {DriftScenario::kClusterChurn, 0x91fbb00477efb98aull},
      {DriftScenario::kHotspot, 0x30464e5fff3eca48ull},
      {DriftScenario::kAdversarial, 0xcb67af2bed7bf24dull},
  };
  for (const Golden& golden : kGolden) {
    DriftConfig dc = BaseConfig(golden.scenario);
    StatusOr<DriftSchedule> sched = MakeDriftSchedule(dc, BaseWorkload());
    ASSERT_TRUE(sched.ok());
    BitHasher hasher;
    for (size_t p = 0; p < sched->phase_count(); ++p) {
      for (const Box& q : sched->phase(p).queries) hasher.Fold(q);
    }
    EXPECT_EQ(hasher.value(), golden.hash)
        << DriftScenarioName(golden.scenario) << " trajectory moved: 0x"
        << std::hex << hasher.value();
  }
}

// The data streams get the same pin (first 64 tuples per phase keeps the
// hash cheap while still covering every phase's generator path). Hotspot and
// adversarial share a hash by design: both serve the same fixed Cross data
// in every phase — only their query streams drift.
TEST(DriftTest, GoldenTrajectoriesPinTheDataStreams) {
  struct Golden {
    DriftScenario scenario;
    uint64_t hash;
  };
  const Golden kGolden[] = {
      {DriftScenario::kMovingCross, 0x73aa8f714e5a487bull},
      {DriftScenario::kClusterChurn, 0x0473e7d28c298d8aull},
      {DriftScenario::kHotspot, 0x12774c3b180b2209ull},
      {DriftScenario::kAdversarial, 0x12774c3b180b2209ull},
  };
  for (const Golden& golden : kGolden) {
    DriftConfig dc = BaseConfig(golden.scenario);
    StatusOr<DriftSchedule> sched = MakeDriftSchedule(dc, BaseWorkload());
    ASSERT_TRUE(sched.ok());
    BitHasher hasher;
    for (size_t p = 0; p < sched->phase_count(); ++p) {
      const Dataset& data = sched->phase(p).data.data;
      const size_t n = std::min<size_t>(data.size(), 64);
      for (size_t i = 0; i < n; ++i) {
        for (size_t d = 0; d < data.dim(); ++d) hasher.Fold(data.value(i, d));
      }
    }
    EXPECT_EQ(hasher.value(), golden.hash)
        << DriftScenarioName(golden.scenario) << " data stream moved: 0x"
        << std::hex << hasher.value();
  }
}

}  // namespace
}  // namespace sthist
