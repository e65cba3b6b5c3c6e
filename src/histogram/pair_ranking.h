#ifndef STHIST_HISTOGRAM_PAIR_RANKING_H_
#define STHIST_HISTOGRAM_PAIR_RANKING_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sthist {

/// One sibling pair of a k-slot merge-table row (slots i < j) with its cheap
/// penalty (DESIGN.md §6).
struct RankedPair {
  double cheap;
  uint32_t i;
  uint32_t j;
};

/// The full ranking key: cheap penalty, then i, then j. No two pairs of one
/// row tie on it. A NaN penalty ranks after every number, which keeps the
/// order strict and weak whatever the penalties are.
inline bool RanksBefore(const RankedPair& a, const RankedPair& b) {
  if (a.cheap < b.cheap) return true;
  if (b.cheap < a.cheap) return false;
  const bool a_nan = std::isnan(a.cheap);
  if (a_nan != std::isnan(b.cheap)) return !a_nan;
  return a.i < b.i || (a.i == b.i && a.j < b.j);
}

/// Position of pair (i, j), i < j, among the k(k-1)/2 pairs of a k-slot row
/// laid out row-major.
inline size_t PairIndex(size_t k, size_t i, size_t j) {
  return i * k - i * (i + 1) / 2 + (j - i - 1);
}

/// An exact prefix of one row's sibling pairs in RanksBefore order: every
/// pair that ranks at or before a limit and no other, at most kDepth of
/// them. A merge search reads the first kRead entries; the prefix is kept
/// deeper so that dropping the pairs of a few rescored slots almost never
/// leaves fewer than that.
///
/// Cheap penalties are passed in row-major pair order (PairIndex). The
/// ranking keeps no pointer to them; `scratch` is a buffer the caller owns
/// and reuses across rows, so no ranking holds more than kDepth entries.
class PairRanking {
 public:
  static constexpr size_t kDepth = 128;
  static constexpr size_t kRead = 32;

  /// Ranks all pairs of a k-slot row from scratch. Returns the pairs
  /// offered: all k(k-1)/2 of them.
  size_t Rank(size_t k, std::span<const double> cheap,
              std::vector<RankedPair>* scratch);

  /// Brings the ranking up to date after every pair with a member flagged
  /// in `dirty` (one flag per slot) was rescored: drops the ranked pairs
  /// with a dirty member, then inserts the rescored pairs that rank within
  /// the prefix. When the drops leave fewer than kRead entries of a row
  /// whose prefix is shorter than the row, re-ranks the whole row instead.
  /// Returns the pairs offered: the rescored ones, or the whole row.
  size_t Update(size_t k, std::span<const double> cheap,
                std::span<const char> dirty,
                std::vector<RankedPair>* scratch);

  /// The prefix, in RanksBefore order.
  std::span<const RankedPair> entries() const { return entries_; }

 private:
  std::vector<RankedPair> entries_;
  // Every pair that ranks at or before `limit_` is in entries_, and when
  // `complete_` every pair of the row is.
  RankedPair limit_{0.0, 0, 0};
  bool complete_ = true;
};

}  // namespace sthist

#endif  // STHIST_HISTOGRAM_PAIR_RANKING_H_
