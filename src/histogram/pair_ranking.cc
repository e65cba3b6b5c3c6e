#include "histogram/pair_ranking.h"

#include <algorithm>

#include "core/check.h"

namespace sthist {

size_t PairRanking::Rank(size_t k, std::span<const double> cheap,
                         std::vector<RankedPair>* scratch) {
  const size_t pairs = k * (k - 1) / 2;
  STHIST_DCHECK(cheap.size() == pairs);
  // Candidates collect in `scratch`; whenever they reach twice the depth,
  // only the kDepth first survive, and the last of those bounds the rest of
  // the row: a pair that does not rank before it has kDepth pairs ahead of
  // it already.
  const auto keep_first = [scratch](size_t n) {
    std::nth_element(scratch->begin(), scratch->begin() + (n - 1),
                     scratch->end(), RanksBefore);
    scratch->resize(n);
  };
  scratch->clear();
  bool bounded = false;
  RankedPair bound{0.0, 0, 0};
  size_t index = 0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      const RankedPair pair{cheap[index++], static_cast<uint32_t>(i),
                            static_cast<uint32_t>(j)};
      if (bounded && !RanksBefore(pair, bound)) continue;
      scratch->push_back(pair);
      if (scratch->size() == 2 * kDepth) {
        keep_first(kDepth);
        bound = scratch->back();
        bounded = true;
      }
    }
  }
  if (scratch->size() > kDepth) keep_first(kDepth);
  std::sort(scratch->begin(), scratch->end(), RanksBefore);
  entries_.assign(scratch->begin(), scratch->end());
  complete_ = entries_.size() == pairs;
  if (!complete_) limit_ = entries_.back();
  return pairs;
}

size_t PairRanking::Update(size_t k, std::span<const double> cheap,
                           std::span<const char> dirty,
                           std::vector<RankedPair>* scratch) {
  STHIST_DCHECK(cheap.size() == k * (k - 1) / 2 && dirty.size() == k);
  std::erase_if(entries_, [dirty](const RankedPair& p) {
    return dirty[p.i] || dirty[p.j];
  });
  if (!complete_ && entries_.size() < kRead) return Rank(k, cheap, scratch);

  // The rescored pairs that rank within the prefix, sorted, go first in
  // `scratch`; the merged prefix follows them.
  scratch->clear();
  size_t offered = 0;
  for (size_t d = 0; d < k; ++d) {
    if (!dirty[d]) continue;
    for (size_t x = 0; x < k; ++x) {
      if (x == d || (dirty[x] && x < d)) continue;  // Each pair once.
      const size_t i = std::min(d, x), j = std::max(d, x);
      const RankedPair pair{cheap[PairIndex(k, i, j)],
                            static_cast<uint32_t>(i),
                            static_cast<uint32_t>(j)};
      ++offered;
      if (complete_ || !RanksBefore(limit_, pair)) scratch->push_back(pair);
    }
  }
  const size_t inserted = scratch->size();
  if (inserted == 0) return offered;
  std::sort(scratch->begin(), scratch->end(), RanksBefore);

  const size_t total = entries_.size() + inserted;
  const size_t depth = std::min(total, kDepth);
  scratch->resize(inserted + depth);
  size_t a = 0, b = 0;
  for (size_t out = inserted; out < inserted + depth; ++out) {
    const bool take_kept =
        b == inserted ||
        (a < entries_.size() && RanksBefore(entries_[a], (*scratch)[b]));
    (*scratch)[out] = take_kept ? entries_[a++] : (*scratch)[b++];
  }
  entries_.assign(scratch->begin() + inserted, scratch->end());
  if (depth < total) {
    complete_ = false;
    limit_ = entries_.back();
  }
  return offered;
}

}  // namespace sthist
