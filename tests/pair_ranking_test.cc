#include "histogram/pair_ranking.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/rng.h"

namespace sthist {
namespace {

// Every pair of a k-slot row, sorted by the full key.
std::vector<RankedPair> BruteForce(size_t k, const std::vector<double>& cheap) {
  std::vector<RankedPair> all;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      all.push_back({cheap[PairIndex(k, i, j)], static_cast<uint32_t>(i),
                     static_cast<uint32_t>(j)});
    }
  }
  std::sort(all.begin(), all.end(), RanksBefore);
  return all;
}

// The ranking must be a prefix of the sorted row at least min(kRead, pairs)
// long and at most kDepth long.
void ExpectExactPrefix(size_t k, const std::vector<double>& cheap,
                       const PairRanking& ranking) {
  const std::vector<RankedPair> all = BruteForce(k, cheap);
  const auto entries = ranking.entries();
  ASSERT_GE(entries.size(), std::min(PairRanking::kRead, all.size()));
  ASSERT_LE(entries.size(), std::min(PairRanking::kDepth, all.size()));
  for (size_t e = 0; e < entries.size(); ++e) {
    ASSERT_EQ(entries[e].i, all[e].i) << "entry " << e << " of k=" << k;
    ASSERT_EQ(entries[e].j, all[e].j) << "entry " << e << " of k=" << k;
    ASSERT_EQ(entries[e].cheap, all[e].cheap) << "entry " << e;
  }
}

TEST(PairRankingTest, PairIndexIsRowMajor) {
  for (size_t k : {2u, 3u, 7u, 40u}) {
    size_t expected = 0;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = i + 1; j < k; ++j) {
        EXPECT_EQ(PairIndex(k, i, j), expected++);
      }
    }
  }
}

TEST(PairRankingTest, RankKeepsTheFullKeyOrderToTheDepth) {
  Rng rng(11);
  std::vector<RankedPair> scratch;
  for (size_t k : {2u, 5u, 16u, 17u, 50u, 120u}) {
    std::vector<double> cheap(k * (k - 1) / 2);
    for (double& c : cheap) c = static_cast<double>(rng.Int(0, 3));
    PairRanking ranking;
    EXPECT_EQ(ranking.Rank(k, cheap, &scratch), cheap.size());
    EXPECT_EQ(ranking.entries().size(),
              std::min(PairRanking::kDepth, cheap.size()));
    ExpectExactPrefix(k, cheap, ranking);
  }
}

// Random rows with cheap penalties drawn from four values, so exact ties
// are common, under random dirty sets of 1-3 slots that often hit the
// pairs at the head of the ranking.
TEST(PairRankingTest, UpdatesMatchBruteForceUnderHeavyTies) {
  Rng rng(7);
  std::vector<RankedPair> scratch;
  size_t updates = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t k = static_cast<size_t>(rng.Int(2, 120));
    const size_t pairs = k * (k - 1) / 2;
    std::vector<double> cheap(pairs);
    for (double& c : cheap) c = 0.25 * static_cast<double>(rng.Int(0, 3));
    PairRanking ranking;
    ranking.Rank(k, cheap, &scratch);
    ExpectExactPrefix(k, cheap, ranking);

    for (int round = 0; round < 40; ++round) {
      std::vector<char> dirty(k, 0);
      const int64_t slots = rng.Int(1, std::min<int64_t>(3, k));
      for (int64_t s = 0; s < slots; ++s) {
        const auto entries = ranking.entries();
        const size_t head = std::min(PairRanking::kRead, entries.size());
        if (head > 0 && rng.Bernoulli(0.6)) {
          const RankedPair& hit = entries[rng.Index(head)];
          dirty[rng.Bernoulli(0.5) ? hit.i : hit.j] = 1;
        } else {
          dirty[rng.Index(k)] = 1;
        }
      }
      size_t rescored = 0;
      for (size_t i = 0; i < k; ++i) {
        for (size_t j = i + 1; j < k; ++j) {
          if (!dirty[i] && !dirty[j]) continue;
          cheap[PairIndex(k, i, j)] =
              0.25 * static_cast<double>(rng.Int(0, 3));
          ++rescored;
        }
      }
      const size_t offered = ranking.Update(k, cheap, dirty, &scratch);
      EXPECT_TRUE(offered == rescored || offered == pairs);
      ExpectExactPrefix(k, cheap, ranking);
      ++updates;
    }
  }
  EXPECT_EQ(updates, 60u * 40u);
}

// When the drops leave fewer than kRead entries of a row deeper than the
// prefix, the whole row is re-ranked.
TEST(PairRankingTest, DropsBelowTheReadDepthReRankTheRow) {
  // Slots 0 and 1 are in the first 137 pairs, more than the prefix holds.
  const size_t k = 70;
  const size_t pairs = k * (k - 1) / 2;
  std::vector<double> cheap(pairs, 1.0);
  for (size_t x = 1; x < k; ++x) cheap[PairIndex(k, 0, x)] = 0.0;
  for (size_t x = 2; x < k; ++x) cheap[PairIndex(k, 1, x)] = 0.0;
  std::vector<RankedPair> scratch;
  PairRanking ranking;
  ranking.Rank(k, cheap, &scratch);
  ASSERT_EQ(ranking.entries().size(), PairRanking::kDepth);

  // Rescoring slots 0 and 1 drops every entry.
  std::vector<char> dirty(k, 0);
  dirty[0] = dirty[1] = 1;
  for (size_t x = 1; x < k; ++x) cheap[PairIndex(k, 0, x)] = 2.0;
  for (size_t x = 2; x < k; ++x) cheap[PairIndex(k, 1, x)] = 2.0;
  EXPECT_EQ(ranking.Update(k, cheap, dirty, &scratch), pairs);
  EXPECT_EQ(ranking.entries().size(), PairRanking::kDepth);
  ExpectExactPrefix(k, cheap, ranking);

  // A small drop keeps the prefix and offers only the rescored pairs.
  std::fill(dirty.begin(), dirty.end(), 0);
  dirty[5] = 1;
  for (size_t x = 0; x < 5; ++x) cheap[PairIndex(k, x, 5)] = 0.5;
  for (size_t x = 6; x < k; ++x) cheap[PairIndex(k, 5, x)] = 0.5;
  EXPECT_EQ(ranking.Update(k, cheap, dirty, &scratch), k - 1);
  ExpectExactPrefix(k, cheap, ranking);
}

TEST(PairRankingTest, NanPenaltiesRankLast) {
  const RankedPair nan{std::numeric_limits<double>::quiet_NaN(), 0, 1};
  const RankedPair big{std::numeric_limits<double>::infinity(), 2, 3};
  EXPECT_TRUE(RanksBefore(big, nan));
  EXPECT_FALSE(RanksBefore(nan, big));
  EXPECT_FALSE(RanksBefore(nan, nan));
  EXPECT_TRUE(RanksBefore(nan, RankedPair{nan.cheap, 0, 2}));
}

}  // namespace
}  // namespace sthist
