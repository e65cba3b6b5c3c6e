#include "histogram/stholes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>

#include "core/binfmt.h"
#include "core/check.h"
#include "histogram/bucket_tree.h"
#include "histogram/pair_ranking.h"
#include "histogram/robustness.h"
#include "obs/trace.h"

namespace sthist {

namespace {

// Content stamps are drawn from one process-wide sequence, so no two nodes
// ever receive the same fresh stamp, whichever tree they belong to.
std::atomic<uint64_t> next_stamp{1};

uint64_t NewStamp() {
  return next_stamp.fetch_add(1, std::memory_order_relaxed);
}

// Sibling pairs per merge search that get the exact, grow-to-swallow
// evaluation after the cheap ranking: as many as each row's ranking keeps
// exact at least.
constexpr size_t kExactEvaluations = PairRanking::kRead;

// Keeps `top` sorted by cheap penalty and at most kExactEvaluations long.
// Entries are offered in increasing order of their tie-break key, so an
// entry tying a kept one on cheap penalty goes after it. Returns whether
// `entry` was kept.
template <typename Entry>
bool OfferRanked(std::vector<Entry>* top, const Entry& entry) {
  if (top->size() == kExactEvaluations &&
      !(entry.cheap < top->back().cheap)) {
    return false;
  }
  auto pos = std::upper_bound(
      top->begin(), top->end(), entry.cheap,
      [](double cheap, const Entry& e) { return cheap < e.cheap; });
  top->insert(pos, entry);
  if (top->size() > kExactEvaluations) top->pop_back();
  return true;
}

// Times every Count of the wrapped oracle.
class TimedOracle : public CardinalityOracle {
 public:
  TimedOracle(const CardinalityOracle& inner, obs::LatencyHistogram seconds)
      : inner_(inner), seconds_(seconds) {}

  double Count(const Box& box) const override {
    obs::ScopedTimer timer(seconds_);
    return inner_.Count(box);
  }

 private:
  const CardinalityOracle& inner_;
  obs::LatencyHistogram seconds_;
};

}  // namespace

/// One node of the bucket tree. The bucket's region is `box` minus the boxes
/// of `children`; `frequency` counts tuples in the region only.
///
/// Children are shared_ptr handles because snapshots share subtrees with the
/// working tree (DESIGN.md §17): a node is mutated only after refinement has
/// established exclusive ownership of it (use_count == 1) via path copying,
/// so a shared node — reachable from any published snapshot — is immutable.
/// Reads never write to a node either: each tree's bucket index keeps its
/// own region volumes.
///
/// `stamp` names the node's content: refinement renews it whenever it
/// changes `frequency` or `children`, ShallowCopy copies it, and no stamp is
/// ever handed out twice, so nodes that share a stamp hold the same box,
/// frequency and children. Merge search keys its scores by it (MergeTable).
struct STHoles::Bucket {
  Box box;
  double frequency = 0.0;
  std::vector<std::shared_ptr<Bucket>> children;
  uint64_t stamp = NewStamp();
};

/// The merge scores of one EnforceBudget call. Per parent, keyed by the
/// parent's stamp, a row holds the parent-child penalty of every child and
/// the cheap penalty of every sibling pair, each pair's exact penalty once a
/// search has computed it, and an exact prefix of its pairs in (cheap, i, j)
/// order (PairRanking). A search rescores only what the previous merge
/// changed: a parent with a new stamp gets a new row, scored and ranked in
/// full, and in a known row only the slots whose child stamp moved are
/// rescored, with every pair they are part of; the ranking then drops and
/// re-inserts just those pairs. Keys are stamps rather than addresses, so a
/// row stays valid across a copy-on-write copy of its parent and can never
/// be matched by a new node that reuses a freed node's address. Rows hold no
/// node pointers: a row copies what its penalties read (frequencies, volumes
/// and the children's bounds) when it scores a slot. Each search drops the
/// rows it did not visit, so the table holds one row per current parent.
class STHoles::MergeTable {
 public:
  struct Row {
    double frequency = 0.0;            // The parent's frequency.
    double vp = 0.0;                   // RegionVolume(parent).
    std::vector<uint64_t> stamps;      // Per slot: the child stamp scored.
    std::vector<double> frequencies;   // Per slot: the child's frequency.
    std::vector<double> volumes;       // Per slot: the child's box volume.
    std::vector<double> regions;       // Per slot: RegionVolume(child).
    std::vector<double> absorb;        // Per slot: parent-child penalty.
    std::vector<double> lo, hi;        // Per slot: the child's bounds.
    std::vector<double> cheap;         // Per pair i < j, at PairIndex.
    std::vector<double> exact;         // Per pair; < 0 until computed.
    PairRanking ranking;
    double absorb_min = 0.0;           // First-min of `absorb`, and its slot.
    size_t absorb_slot = 0;
    uint64_t search = 0;               // The last search that visited it.
  };

  explicit MergeTable(size_t dim)
      : dim_(dim), grown_lo_(dim), grown_hi_(dim) {}

  /// The row of `parent` (which has children), rescored where its content
  /// or a child's content changed since the row was last seen.
  Row& Refresh(const Bucket& parent);

  /// The sibling merge's penalty for slots i < j of `row`: the enclosure of
  /// the two grows until it contains or excludes every other sibling (paper
  /// Figure 3), and the merged bucket takes the parent's share of what it
  /// swallows. The grown bounds are left in grown_lo() / grown_hi().
  double ExactPenalty(const Row& row, size_t i, size_t j);
  const std::vector<double>& grown_lo() const { return grown_lo_; }
  const std::vector<double>& grown_hi() const { return grown_hi_; }

  /// Drops the rows the search that is ending did not visit.
  void EndSearch();

  /// Cheap sibling-pair scores computed, and pairs offered to a row
  /// ranking, since the last call.
  uint64_t TakePairsScored() { return std::exchange(pairs_scored_, 0); }
  uint64_t TakePairsRanked() { return std::exchange(pairs_ranked_, 0); }

 private:
  void ScoreSlot(const Bucket& child, size_t slot, Row* row) const;
  double CheapPenalty(const Row& row, size_t i, size_t j);
  // Eq. 2 for a sibling merge that swallows `vold` of the parent's region.
  static double SiblingPenalty(const Row& row, size_t i, size_t j,
                               double vold);

  size_t dim_;
  std::unordered_map<uint64_t, Row> rows_;
  uint64_t search_ = 1;
  std::vector<char> dirty_;             // Scratch: per-slot rescore flags.
  std::vector<RankedPair> scratch_;     // Scratch of every row's ranking.
  std::vector<double> grown_lo_, grown_hi_;  // ExactPenalty's grown box,
  std::vector<char> inside_;                 // and what it contains.
  uint64_t pairs_scored_ = 0;
  uint64_t pairs_ranked_ = 0;
};

STHoles::MergeTable::Row& STHoles::MergeTable::Refresh(const Bucket& parent) {
  const size_t k = parent.children.size();
  auto [it, fresh] = rows_.try_emplace(parent.stamp);
  Row& row = it->second;
  row.search = search_;
  if (fresh) {
    row.frequency = parent.frequency;
    row.vp = RegionVolume(parent);
    row.stamps.assign(k, 0);  // Stamps start at 1: every slot is dirty.
    row.frequencies.resize(k);
    row.volumes.resize(k);
    row.regions.resize(k);
    row.absorb.resize(k);
    row.lo.resize(k * dim_);
    row.hi.resize(k * dim_);
    row.cheap.resize(k * (k - 1) / 2);
    row.exact.assign(k * (k - 1) / 2, -1.0);
  }
  STHIST_DCHECK(row.stamps.size() == k);

  dirty_.assign(k, 0);
  bool any_dirty = false;
  for (size_t i = 0; i < k; ++i) {
    const Bucket& child = *parent.children[i];
    if (row.stamps[i] == child.stamp) continue;
    dirty_[i] = 1;
    any_dirty = true;
    ScoreSlot(child, i, &row);
  }
  if (!any_dirty) return row;

  row.absorb_min = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < k; ++i) {
    if (row.absorb[i] < row.absorb_min) {
      row.absorb_min = row.absorb[i];
      row.absorb_slot = i;
    }
  }

  if (fresh) {
    size_t index = 0;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = i + 1; j < k; ++j) {
        row.cheap[index++] = CheapPenalty(row, i, j);
      }
    }
    pairs_ranked_ += row.ranking.Rank(k, row.cheap, &scratch_);
    return row;
  }
  // Rescore every pair with a dirty member, each once.
  for (size_t d = 0; d < k; ++d) {
    if (!dirty_[d]) continue;
    for (size_t x = 0; x < k; ++x) {
      if (x == d || (dirty_[x] && x < d)) continue;
      const size_t i = std::min(d, x), j = std::max(d, x);
      const size_t index = PairIndex(k, i, j);
      row.cheap[index] = CheapPenalty(row, i, j);
      row.exact[index] = -1.0;
    }
  }
  pairs_ranked_ += row.ranking.Update(k, row.cheap, dirty_, &scratch_);
  return row;
}

void STHoles::MergeTable::ScoreSlot(const Bucket& child, size_t slot,
                                    Row* row) const {
  row->stamps[slot] = child.stamp;
  row->frequencies[slot] = child.frequency;
  row->volumes[slot] = child.box.Volume();
  row->regions[slot] = RegionVolume(child);
  std::copy_n(child.box.lo_data(), dim_, row->lo.begin() + slot * dim_);
  std::copy_n(child.box.hi_data(), dim_, row->hi.begin() + slot * dim_);
  // Parent-child merge (bp, bc) -> bn with box(bn) = box(bp); the exact
  // penalty is already O(1) given the region volumes.
  const double region = row->regions[slot];
  double vn = row->vp + region;
  double penalty = 0.0;
  if (vn > 0.0) {
    double dn = (row->frequency + child.frequency) / vn;
    penalty = std::abs(row->frequency - dn * row->vp) +
              std::abs(child.frequency - dn * region);
  }
  row->absorb[slot] = penalty;
}

double STHoles::MergeTable::SiblingPenalty(const Row& row, size_t i, size_t j,
                                           double vold) {
  const double vp = row.vp;
  double from_parent =
      vp > 0.0 ? row.frequency * std::min(vold / vp, 1.0) : 0.0;
  double fn = row.frequencies[i] + row.frequencies[j] + from_parent;
  double vn = row.regions[i] + row.regions[j] + vold;
  double penalty = 0.0;
  if (vn > 0.0) {
    double dn = fn / vn;
    penalty = std::abs(row.frequencies[i] - dn * row.regions[i]) +
              std::abs(row.frequencies[j] - dn * row.regions[j]) +
              std::abs(from_parent - dn * vold);
  }
  return penalty;
}

double STHoles::MergeTable::CheapPenalty(const Row& row, size_t i, size_t j) {
  // The plain enclosure of the pair stands in for the grown merge box. Its
  // volume is the product Box::Volume would take over Box::Enclosure, in the
  // same order, without building the box.
  ++pairs_scored_;
  const double* lo_i = row.lo.data() + i * dim_;
  const double* hi_i = row.hi.data() + i * dim_;
  const double* lo_j = row.lo.data() + j * dim_;
  const double* hi_j = row.hi.data() + j * dim_;
  double enclosure = 1.0;
  for (size_t d = 0; d < dim_; ++d) {
    enclosure *= std::max(hi_i[d], hi_j[d]) - std::min(lo_i[d], lo_j[d]);
  }
  double vold = std::max(enclosure - row.volumes[i] - row.volumes[j], 0.0);
  return SiblingPenalty(row, i, j, vold);
}

double STHoles::MergeTable::ExactPenalty(const Row& row, size_t i, size_t j) {
  // Box::Enclosure, Box::Intersects (open interiors), Box::Contains
  // (closed), Box::ExtendToContain and Box::Volume on the row's flat
  // bounds: the same min/max and comparisons, in the same order.
  double* lo = grown_lo_.data();
  double* hi = grown_hi_.data();
  const double* lo_i = row.lo.data() + i * dim_;
  const double* hi_i = row.hi.data() + i * dim_;
  const double* lo_j = row.lo.data() + j * dim_;
  const double* hi_j = row.hi.data() + j * dim_;
  for (size_t d = 0; d < dim_; ++d) {
    lo[d] = std::min(lo_i[d], lo_j[d]);
    hi[d] = std::max(hi_i[d], hi_j[d]);
  }

  // Each pass tests every other sibling against the box as grown so far
  // and swallows the ones it straddles. The pass that grows nothing has
  // tested every sibling against the final box, so its containment flags
  // are the final ones.
  const size_t k = row.stamps.size();
  inside_.resize(k);
  bool grew = true;
  while (grew) {
    grew = false;
    for (size_t s = 0; s < k; ++s) {
      if (s == i || s == j) continue;
      const double* s_lo = row.lo.data() + s * dim_;
      const double* s_hi = row.hi.data() + s * dim_;
      bool apart = false;
      bool inside = true;
      for (size_t d = 0; d < dim_; ++d) {
        apart |= (s_hi[d] <= lo[d]) | (s_lo[d] >= hi[d]);
        inside &= !(s_lo[d] < lo[d]) & !(s_hi[d] > hi[d]);
      }
      inside_[s] = inside;
      if (!apart && !inside) {
        for (size_t d = 0; d < dim_; ++d) {
          lo[d] = std::min(lo[d], s_lo[d]);
          hi[d] = std::max(hi[d], s_hi[d]);
        }
        grew = true;
      }
    }
  }

  // vold: the slice of the parent's own region swallowed by the grown box.
  double enclosed_boxes = row.volumes[i] + row.volumes[j];
  for (size_t s = 0; s < k; ++s) {
    if (s != i && s != j && inside_[s]) enclosed_boxes += row.volumes[s];
  }
  double grown_volume = 1.0;
  for (size_t d = 0; d < dim_; ++d) grown_volume *= hi[d] - lo[d];
  double vold = std::max(grown_volume - enclosed_boxes, 0.0);
  return SiblingPenalty(row, i, j, vold);
}

void STHoles::MergeTable::EndSearch() {
  std::erase_if(rows_, [this](const auto& entry) {
    return entry.second.search != search_;
  });
  ++search_;
}

STHoles::STHoles(const Box& domain, double total_tuples,
                 const STHolesConfig& config)
    : config_(config) {
  STHIST_CHECK(domain.dim() > 0);
  STHIST_CHECK(domain.Volume() > 0);
  STHIST_CHECK(total_tuples >= 0);
  root_ = std::make_shared<Bucket>();
  root_->box = domain;
  root_->frequency = total_tuples;
  bucket_count_ = 1;

  obs::MetricsRegistry* reg =
      config.metrics != nullptr ? config.metrics : obs::GlobalMetrics();
  index_ = std::make_unique<LazyBucketIndex<Bucket>>(reg);
  metrics_.estimates = reg->counter("histogram.stholes.estimates");
  metrics_.refines = reg->counter("histogram.stholes.refines");
  metrics_.drills = reg->counter("histogram.stholes.drills");
  metrics_.merges = reg->counter("histogram.stholes.merges");
  metrics_.migrated_children =
      reg->counter("histogram.stholes.migrated_children");
  metrics_.buckets = reg->gauge("histogram.stholes.buckets");
  metrics_.refine_seconds = reg->latency("histogram.stholes.refine_seconds");
  metrics_.shrink_seconds = reg->latency("histogram.stholes.shrink_seconds");
  metrics_.drill_seconds = reg->latency("histogram.stholes.drill_seconds");
  metrics_.oracle_count_seconds =
      reg->latency("histogram.stholes.oracle_count_seconds");
  metrics_.merge_search_seconds =
      reg->latency("histogram.stholes.merge_search_seconds");
  metrics_.merge_seconds = reg->latency("histogram.stholes.merge_seconds");
  metrics_.merge_pairs_scored =
      reg->counter("histogram.stholes.merge_pairs_scored");
  metrics_.merge_pairs_ranked =
      reg->counter("histogram.stholes.merge_pairs_ranked");
  metrics_.merge_exact_evaluations =
      reg->counter("histogram.stholes.merge_exact_evaluations");
  metrics_.cow_copied = reg->counter("histogram.cow.copied_nodes");
  metrics_.cow_snapshots = reg->counter("histogram.cow.snapshots");
  metrics_.cow_shared = reg->gauge("histogram.cow.shared_nodes");
}

STHoles::~STHoles() = default;

const Box& STHoles::domain() const { return root_->box; }

// ---------------------------------------------------------------------------
// Estimation (paper eq. 1, histogram/bucket_tree.h)
// ---------------------------------------------------------------------------

double STHoles::Estimate(const Box& query) const {
  metrics_.estimates.Inc();
  return index_->Estimate(*root_, query);
}

double STHoles::EstimateLinear(const Box& query) const {
  return index_->EstimateLinear(*root_, query);
}

RobustnessStats STHoles::robustness() const {
  RobustnessStats stats = stats_;
  stats.rejected_queries += index_->rejected();
  return stats;
}

double STHoles::TotalFrequency() const {
  return sthist::TotalFrequency(*root_);
}

// ---------------------------------------------------------------------------
// Refinement: drilling candidate holes (paper §2, STHoles §4.2)
// ---------------------------------------------------------------------------

void STHoles::Refine(const Box& query, const CardinalityOracle& oracle) {
  metrics_.refines.Inc();
  obs::ScopedTimer refine_timer(metrics_.refine_seconds);
  // Query boxes and oracle counts are untrusted: repair what is repairable,
  // drop what is not, and never abort.
  std::optional<Box> sanitized =
      SanitizeFeedbackQuery(root_->box, query, &stats_);
  if (!sanitized.has_value()) return;
  Box q = std::move(*sanitized);
  const double min_volume = MinRegionVolume(root_->box);
  if (q.Volume() <= min_volume) {
    ++stats_.rejected_queries;
    return;
  }
  SanitizingOracle safe(oracle, &stats_);
  const TimedOracle timed_safe(safe, metrics_.oracle_count_seconds);

  // Snapshot the buckets the query intersects before mutating the tree: holes
  // drilled by this very query must not be drilled into again. The collection
  // descent also re-establishes exclusive ownership of exactly those buckets
  // (the touched spine), so everything drilled or frequency-corrected below
  // is guaranteed unshared from any published snapshot.
  std::vector<Bucket*> intersecting;
  CollectIntersecting(EnsureExclusiveRoot(), q, &intersecting);

  for (Bucket* b : intersecting) {
    obs::ScopedTimer shrink_timer(metrics_.shrink_seconds);
    Box candidate = ShrinkCandidate(*b, q);
    shrink_timer.Stop();
    if (candidate.Volume() <= min_volume) continue;
    DrillHole(b, candidate, timed_safe);
  }

  EnforceBudget();
  metrics_.buckets.Set(static_cast<double>(bucket_count()));
}

void STHoles::CollectIntersecting(Bucket* b, const Box& query,
                                  std::vector<Bucket*>* out) {
  // Precondition: b is exclusively owned (the caller unshared it). Children
  // are unshared right before descending, and only the intersecting ones —
  // the intersecting set is upward-closed (a child's box nests inside its
  // parent's), so this copies exactly the touched spine and nothing else.
  out->push_back(b);
  for (size_t slot = 0; slot < b->children.size(); ++slot) {
    if (b->children[slot]->box.IntersectionVolume(query) <= 0.0) continue;
    CollectIntersecting(EnsureExclusiveChild(b, slot), query, out);
  }
}

void STHoles::SetExactFrequency(Bucket* b, const CardinalityOracle& oracle) {
  double f = oracle.Count(b->box);
  for (const auto& child : b->children) {
    f -= oracle.Count(child->box);
  }
  if (!std::isfinite(f)) {
    ++stats_.repaired_buckets;
    f = 0.0;
  }
  b->frequency = std::max(f, 0.0);
  b->stamp = NewStamp();
}

void STHoles::DrillHole(Bucket* b, const Box& candidate,
                        const CardinalityOracle& oracle) {
  // Times the whole call, including the frequency-correction shortcuts; the
  // drills counter moves only when a hole bucket is actually created.
  obs::ScopedTimer drill_timer(metrics_.drill_seconds);
  const double eps = DrillTolerance(root_->box);

  if (candidate.ApproxEquals(b->box, eps)) {
    // The query feedback covers b entirely: correct its frequency in place.
    SetExactFrequency(b, oracle);
    return;
  }

  // A child whose box *is* the candidate just gets its frequency corrected —
  // unshared explicitly, because the tolerance can match a child the
  // collection descent skipped (zero-volume intersection under eps).
  for (size_t slot = 0; slot < b->children.size(); ++slot) {
    if (b->children[slot]->box.ApproxEquals(candidate, eps)) {
      SetExactFrequency(EnsureExclusiveChild(b, slot), oracle);
      return;
    }
  }

  // b is exclusively owned (CollectIntersecting unshared it), so the
  // carve may rewrite its children list.
  const size_t migrated_children =
      CarveHole(b, std::make_shared<Bucket>(), candidate, oracle, &stats_,
                index_.get());
  b->stamp = NewStamp();
  ++bucket_count_;
  ++fresh_since_snapshot_;
  metrics_.drills.Inc();
  metrics_.migrated_children.Inc(migrated_children);
}

// ---------------------------------------------------------------------------
// Merging (paper §2 "Removing buckets", STHoles §4.3)
// ---------------------------------------------------------------------------

void STHoles::EnforceBudget() {
  MergeTable table(root_->box.dim());
  while (bucket_count() > config_.max_buckets) {
    obs::ScopedTimer search_timer(metrics_.merge_search_seconds);
    MergeCandidate merge = FindBestMerge(&table);
    search_timer.Stop();
    if (merge.parent == nullptr) {
      // Budget exhaustion with nothing mergeable: keep the extra buckets
      // rather than aborting, and make the degradation observable.
      ++stats_.repaired_buckets;
      return;
    }
    // The merge mutates the parent node (frequency, children list), which
    // FindBestMerge may have picked outside the spine this Refine already
    // unshared. Re-establish exclusive ownership down to it first; the
    // children handles survive a parent copy, so merge.first/second stay
    // valid either way.
    merge.parent = UnsharePathTo(merge.parent);
    ApplyMerge(merge);
  }
}

STHoles::MergeCandidate STHoles::FindBestMerge(MergeTable* table) const {
  MergeCandidate best;
  best.penalty = std::numeric_limits<double>::infinity();

  // Sibling merges are ranked by a cheap penalty proxy first (the enclosure
  // without the grow-to-swallow-participants step), and only the most
  // promising pairs get the exact evaluation. That order is total: cheap
  // penalty, then the parent's position in the stack walk below, then the
  // slots i < j. Parent-child merges are exact already; the first minimum
  // in walk order is kept, and it wins exact ties against sibling merges.
  struct Sibling {
    double cheap;
    Bucket* parent;
    MergeTable::Row* row;
    uint32_t i;
    uint32_t j;
  };
  std::vector<Sibling> ranked;
  ranked.reserve(kExactEvaluations + 1);

  std::vector<Bucket*> stack = {root_.get()};
  while (!stack.empty()) {
    Bucket* parent = stack.back();
    stack.pop_back();
    if (parent->children.empty()) continue;
    for (const auto& child : parent->children) stack.push_back(child.get());

    MergeTable::Row& row = table->Refresh(*parent);
    if (row.absorb_min < best.penalty) {
      best.parent = parent;
      best.first = parent->children[row.absorb_slot].get();
      best.second = nullptr;
      best.penalty = row.absorb_min;
    }
    // Rows are visited in walk order and each offers its first pairs in its
    // own (cheap, i, j) order; the rest of a row ranks after a rejected pair.
    const std::span<const RankedPair> entries = row.ranking.entries();
    const size_t offers = std::min(entries.size(), kExactEvaluations);
    for (size_t e = 0; e < offers; ++e) {
      const RankedPair& r = entries[e];
      if (!OfferRanked(&ranked, Sibling{r.cheap, parent, &row, r.i, r.j})) {
        break;
      }
    }
  }
  table->EndSearch();  // Drops no row `ranked` points into.

  // Exact evaluation of the most promising sibling pairs. A pair's exact
  // penalty is kept until its parent or either member changes.
  uint64_t exact_evaluations = 0;
  const Sibling* winner = nullptr;
  for (const Sibling& s : ranked) {
    double& exact =
        s.row->exact[PairIndex(s.row->stamps.size(), s.i, s.j)];
    if (exact < 0.0) {
      exact = table->ExactPenalty(*s.row, s.i, s.j);
      ++exact_evaluations;
    }
    if (exact < best.penalty) {
      best.penalty = exact;
      winner = &s;
    }
  }
  if (winner != nullptr) {
    // Evaluated again for the grown box, which becomes the merged bucket's;
    // the penalty comes out the same.
    best.penalty = table->ExactPenalty(*winner->row, winner->i, winner->j);
    ++exact_evaluations;
    best.parent = winner->parent;
    best.first = winner->parent->children[winner->i].get();
    best.second = winner->parent->children[winner->j].get();
    best.merged_box = Box(table->grown_lo(), table->grown_hi());
  }
  metrics_.merge_pairs_scored.Inc(table->TakePairsScored());
  metrics_.merge_pairs_ranked.Inc(table->TakePairsRanked());
  metrics_.merge_exact_evaluations.Inc(exact_evaluations);
  return best;
}

void STHoles::ApplyMerge(const MergeCandidate& merge) {
  obs::ScopedTimer merge_timer(metrics_.merge_seconds);
  metrics_.merges.Inc();
  // Every merge moves buckets between children lists; the index's
  // (parent, slot) references are stale either way.
  index_->InvalidateIndex();
  Bucket* parent = merge.parent;
  parent->stamp = NewStamp();

  if (merge.second == nullptr) {
    // Parent-child: the child's mass and holes float up into the parent.
    // The dying child may still be shared with a snapshot, so its grandchild
    // handles are *copied* up, never moved out — moving would gut a node a
    // snapshot is still reading.
    Bucket* child = merge.first;
    parent->frequency += child->frequency;
    auto it = std::find_if(
        parent->children.begin(), parent->children.end(),
        [child](const std::shared_ptr<Bucket>& b) { return b.get() == child; });
    STHIST_CHECK(it != parent->children.end());
    std::shared_ptr<Bucket> owned = *it;  // Keep alive across the erase.
    parent->children.erase(it);
    for (const auto& grandchild : owned->children) {
      parent->children.push_back(grandchild);
    }
    --bucket_count_;
    return;
  }

  // Sibling-sibling.
  const Box& bn = merge.merged_box;
  double vp = RegionVolume(*parent);
  double enclosed_boxes = 0.0;
  for (const auto& sibling : parent->children) {
    if (bn.Contains(sibling->box)) enclosed_boxes += sibling->box.Volume();
  }
  double vold = std::max(bn.Volume() - enclosed_boxes, 0.0);
  double from_parent =
      vp > 0.0 ? parent->frequency * std::min(vold / vp, 1.0) : 0.0;

  auto merged = std::make_shared<Bucket>();
  merged->box = bn;
  merged->frequency =
      merge.first->frequency + merge.second->frequency + from_parent;
  parent->frequency = std::max(parent->frequency - from_parent, 0.0);

  std::vector<std::shared_ptr<Bucket>> kept;
  kept.reserve(parent->children.size());
  for (auto& sibling : parent->children) {
    Bucket* s = sibling.get();
    if (s == merge.first || s == merge.second) {
      // Their holes live on inside the merged bucket — grandchild handles
      // are copied, not moved: the dying siblings may be shared with a
      // snapshot that is still reading them.
      for (const auto& grandchild : s->children) {
        merged->children.push_back(grandchild);
      }
    } else if (bn.Contains(s->box)) {
      // Participants become children of the merged bucket, intact; only the
      // handle moves (from the exclusively-owned parent), never the node.
      merged->children.push_back(std::move(sibling));
    } else {
      kept.push_back(std::move(sibling));
    }
  }
  parent->children = std::move(kept);
  parent->children.push_back(std::move(merged));
  ++fresh_since_snapshot_;
  --bucket_count_;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<STHoles::BucketInfo> STHoles::Dump() const {
  std::vector<BucketInfo> out;
  out.reserve(bucket_count_);
  // Pre-order with explicit depth tracking.
  std::vector<std::pair<const Bucket*, size_t>> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    auto [b, depth] = stack.back();
    stack.pop_back();
    BucketInfo info;
    info.box = b->box;
    info.frequency = b->frequency;
    info.depth = depth;
    info.children = b->children.size();
    out.push_back(std::move(info));
    for (auto it = b->children.rbegin(); it != b->children.rend(); ++it) {
      stack.push_back({it->get(), depth + 1});
    }
  }
  return out;
}

std::shared_ptr<STHoles::Bucket> STHoles::CopySubtree(const Bucket& b) {
  auto copy = std::make_shared<Bucket>();
  copy->box = b.box;
  copy->frequency = b.frequency;
  copy->children.reserve(b.children.size());
  for (const auto& child : b.children) {
    copy->children.push_back(CopySubtree(*child));
  }
  return copy;
}

std::unique_ptr<Histogram> STHoles::Clone() const {
  auto clone = std::unique_ptr<STHoles>(
      new STHoles(root_->box, root_->frequency, config_));
  clone->root_ = CopySubtree(*root_);
  clone->bucket_count_ = bucket_count_;
  // Fold the estimate-path rejections (held as an atomic in index_) into the
  // clone's plain counters so its robustness() totals match the source's at
  // the moment of cloning; the clone's own index_ starts at zero.
  clone->stats_ = robustness();
  return clone;
}

std::shared_ptr<const Histogram> STHoles::Snapshot() const {
  // Shares the whole tree: the snapshot holds a second reference to root_,
  // and refinement of this histogram path-copies away from every node it
  // touches before mutating (CollectIntersecting / UnsharePathTo), so what
  // the snapshot answers is frozen at this moment. The snapshot itself never
  // refines — it is published as const — so its tree never diverges.
  auto snap = std::unique_ptr<STHoles>(
      new STHoles(root_->box, root_->frequency, config_));
  snap->root_ = root_;
  snap->bucket_count_ = bucket_count_;
  snap->stats_ = robustness();
  metrics_.cow_snapshots.Inc();
  // Everything materialized since the previous snapshot (path copies plus
  // drilled/merged buckets) is what this snapshot does NOT share with it.
  const size_t fresh = std::min(fresh_since_snapshot_, bucket_count_);
  metrics_.cow_shared.Set(static_cast<double>(bucket_count_ - fresh));
  fresh_since_snapshot_ = 0;
  return std::shared_ptr<const Histogram>(std::move(snap));
}

// ---------------------------------------------------------------------------
// Copy-on-write plumbing (DESIGN.md §17)
// ---------------------------------------------------------------------------

std::shared_ptr<STHoles::Bucket> STHoles::ShallowCopy(const Bucket& b) {
  auto copy = std::make_shared<Bucket>();
  copy->box = b.box;
  copy->frequency = b.frequency;
  copy->children = b.children;  // Handle copies: child subtrees stay shared.
  copy->stamp = b.stamp;        // Same content, same stamp.
  return copy;
}

STHoles::Bucket* STHoles::EnsureExclusiveRoot() {
  if (root_.use_count() > 1) {
    root_ = ShallowCopy(*root_);
    ++cow_copied_total_;
    ++fresh_since_snapshot_;
    metrics_.cow_copied.Inc();
    // The index holds raw pointers into the superseded node.
    index_->InvalidateIndex();
  }
  return root_.get();
}

STHoles::Bucket* STHoles::EnsureExclusiveChild(Bucket* parent, size_t slot) {
  // An exclusively-owned parent does NOT imply exclusively-owned children: a
  // snapshot's copied ancestor still holds handles to the same child nodes,
  // so the reference count is checked at every level of the descent.
  std::shared_ptr<Bucket>& child = parent->children[slot];
  if (child.use_count() > 1) {
    child = ShallowCopy(*child);
    ++cow_copied_total_;
    ++fresh_since_snapshot_;
    metrics_.cow_copied.Inc();
    index_->InvalidateIndex();
  }
  return child.get();
}

bool STHoles::FindPath(const Bucket* node, const Bucket* target,
                       std::vector<size_t>* slots) {
  if (node == target) return true;
  for (size_t slot = 0; slot < node->children.size(); ++slot) {
    slots->push_back(slot);
    if (FindPath(node->children[slot].get(), target, slots)) return true;
    slots->pop_back();
  }
  return false;
}

STHoles::Bucket* STHoles::UnsharePathTo(Bucket* target) {
  std::vector<size_t> slots;
  STHIST_CHECK_MSG(FindPath(root_.get(), target, &slots),
                   "UnsharePathTo target is not a node of this tree");
  Bucket* node = EnsureExclusiveRoot();
  for (size_t slot : slots) node = EnsureExclusiveChild(node, slot);
  return node;
}

size_t STHoles::SharedNodeCount() const {
  // Sharing is transitive: every node below a multiply-referenced handle is
  // physically shared with some snapshot even though its own handle count
  // is 1 (only the subtree root's handle is duplicated by a path copy).
  size_t shared = 0;
  std::vector<std::pair<const Bucket*, bool>> stack;
  stack.emplace_back(root_.get(), root_.use_count() > 1);
  while (!stack.empty()) {
    const auto [b, inherited] = stack.back();
    stack.pop_back();
    if (inherited) ++shared;
    for (const auto& child : b->children) {
      stack.emplace_back(child.get(), inherited || child.use_count() > 1);
    }
  }
  return shared;
}

// ---------------------------------------------------------------------------
// Binary snapshot format (DESIGN.md §17)
// ---------------------------------------------------------------------------
//
// Layout (all integers little-endian, doubles as raw IEEE-754 bit patterns):
//   header (24 bytes): magic "STHB" | u32 version | u64 payload_size
//                      | u64 FNV-1a checksum of the payload
//   payload: u32 dim | u64 bucket_count
//            | bucket_count pre-order records of
//              u32 depth | dim x (f64 lo, f64 hi) | f64 frequency
// Records are fixed-size given dim, so payload_size is an exact function of
// (dim, bucket_count) and any truncation or padding is a framing error.

namespace {
constexpr char kBinaryMagic[] = "STHB";
}  // namespace

std::string STHoles::SerializeBinary() const {
  using binfmt::AppendF64;
  using binfmt::AppendU32;
  using binfmt::AppendU64;
  const size_t dim = root_->box.dim();
  std::string payload;
  payload.reserve(12 + bucket_count_ * (4 + dim * 16 + 8));
  AppendU32(&payload, static_cast<uint32_t>(dim));
  AppendU64(&payload, bucket_count_);
  std::vector<std::pair<const Bucket*, uint32_t>> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    auto [b, depth] = stack.back();
    stack.pop_back();
    AppendU32(&payload, depth);
    for (size_t d = 0; d < dim; ++d) {
      AppendF64(&payload, b->box.lo(d));
      AppendF64(&payload, b->box.hi(d));
    }
    AppendF64(&payload, b->frequency);
    for (auto it = b->children.rbegin(); it != b->children.rend(); ++it) {
      stack.push_back({it->get(), depth + 1});
    }
  }
  return binfmt::Frame(kBinaryMagic, kBinaryFormatVersion, payload);
}

StatusOr<std::unique_ptr<STHoles>> STHoles::DeserializeBinary(
    std::string_view bytes, const STHolesConfig& config) {
  using binfmt::ReadF64;
  using binfmt::ReadU32;
  using binfmt::ReadU64;
  // Framing: every check fails closed before any payload byte is trusted.
  StatusOr<std::string_view> framed =
      binfmt::Unframe(kBinaryMagic, kBinaryFormatVersion, bytes);
  if (!framed.ok()) return framed.status();
  const std::string_view payload = *framed;
  const uint64_t payload_size = payload.size();
  if (payload_size < 12) {
    return Status::InvalidArgument("snapshot payload shorter than its "
                                   "dim/bucket-count preamble");
  }
  const uint32_t dim = ReadU32(payload.data());
  const uint64_t buckets = ReadU64(payload.data() + 4);
  if (dim == 0 || buckets == 0) {
    return Status::InvalidArgument(
        "snapshot declares zero dimensions or zero buckets");
  }
  // Records are fixed-size, so the payload length must match exactly; this
  // also rejects headers whose claimed counts could not possibly fit,
  // before anything allocates proportionally to them. record <= 2^36 + 12,
  // and buckets is bounded by payload_size / record before the multiply, so
  // nothing here can overflow.
  const uint64_t record = 4ull + 16ull * dim + 8ull;
  if (buckets > (payload_size - 12) / record ||
      12 + buckets * record != payload_size) {
    return StatusF(StatusCode::kInvalidArgument,
                   "snapshot payload size inconsistent with dim=%u "
                   "buckets=%llu",
                   dim, static_cast<unsigned long long>(buckets));
  }

  const char* cursor = payload.data() + 12;
  std::unique_ptr<STHoles> hist;
  std::vector<Bucket*> path;  // path[i] = last bucket seen at depth i.
  for (uint64_t line = 0; line < buckets; ++line) {
    const uint32_t depth = ReadU32(cursor);
    cursor += 4;
    std::vector<double> lo(dim), hi(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      lo[d] = ReadF64(cursor);
      hi[d] = ReadF64(cursor + 8);
      cursor += 16;
      if (!std::isfinite(lo[d]) || !std::isfinite(hi[d]) || lo[d] > hi[d]) {
        return StatusF(StatusCode::kInvalidArgument,
                       "snapshot bucket %llu has a non-finite or inverted "
                       "bound in dimension %u",
                       static_cast<unsigned long long>(line), d);
      }
    }
    const double frequency = ReadF64(cursor);
    cursor += 8;
    if (!std::isfinite(frequency) || frequency < 0.0) {
      return StatusF(StatusCode::kInvalidArgument,
                     "snapshot bucket %llu has a non-finite or negative "
                     "frequency",
                     static_cast<unsigned long long>(line));
    }

    if (line == 0) {
      if (depth != 0) {
        return Status::InvalidArgument("snapshot root bucket is not depth 0");
      }
      Box domain(std::move(lo), std::move(hi));
      // Negated so that a NaN volume (an overflowing extent times a zero
      // one) is rejected too: the constructor aborts on any volume that is
      // not positive.
      if (!(domain.Volume() > 0.0)) {
        return Status::InvalidArgument(
            "snapshot domain has zero or NaN volume");
      }
      hist = std::unique_ptr<STHoles>(new STHoles(domain, frequency, config));
      path = {hist->root_.get()};
      continue;
    }
    if (depth == 0 || depth > path.size()) {
      return StatusF(StatusCode::kInvalidArgument,
                     "snapshot bucket %llu has out-of-order depth %u",
                     static_cast<unsigned long long>(line), depth);
    }
    auto bucket = std::make_shared<Bucket>();
    bucket->box = Box(std::move(lo), std::move(hi));
    bucket->frequency = frequency;
    Bucket* parent = path[depth - 1];
    if (!parent->box.Contains(bucket->box)) {
      return StatusF(StatusCode::kInvalidArgument,
                     "snapshot bucket %llu escapes its parent",
                     static_cast<unsigned long long>(line));
    }
    for (const auto& sibling : parent->children) {
      if (sibling->box.Intersects(bucket->box)) {
        return StatusF(StatusCode::kInvalidArgument,
                       "snapshot bucket %llu overlaps a sibling",
                       static_cast<unsigned long long>(line));
      }
    }
    Bucket* raw = bucket.get();
    parent->children.push_back(std::move(bucket));
    ++hist->bucket_count_;
    path.resize(depth);
    path.push_back(raw);
  }
  // The exact-size check above means the cursor lands precisely on the end;
  // nothing can trail.
  STHIST_DCHECK(cursor == payload.data() + payload.size());
  return hist;
}

void STHoles::CheckInvariants() const {
  CheckBucketTree(*root_, bucket_count_);
}

}  // namespace sthist
