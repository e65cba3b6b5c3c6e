#include "histogram/isomer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/check.h"
#include "histogram/bucket_tree.h"
#include "histogram/robustness.h"
#include "obs/trace.h"

namespace sthist {

struct IsomerHistogram::Bucket {
  Box box;
  double frequency = 0.0;
  std::vector<std::unique_ptr<Bucket>> children;
};

IsomerHistogram::IsomerHistogram(const Box& domain, double total_tuples,
                                 const IsomerConfig& config)
    : config_(config), total_tuples_(total_tuples) {
  STHIST_CHECK(domain.dim() > 0);
  STHIST_CHECK(domain.Volume() > 0);
  STHIST_CHECK(total_tuples >= 0);
  root_ = std::make_unique<Bucket>();
  root_->box = domain;
  root_->frequency = total_tuples;
  bucket_count_ = 1;

  obs::MetricsRegistry* reg =
      config.metrics != nullptr ? config.metrics : obs::GlobalMetrics();
  index_ = std::make_unique<LazyBucketIndex<Bucket>>(reg);
  metrics_.estimates = reg->counter("histogram.isomer.estimates");
  metrics_.refines = reg->counter("histogram.isomer.refines");
  metrics_.constraints = reg->gauge("histogram.isomer.constraints");
  metrics_.refine_seconds = reg->latency("histogram.isomer.refine_seconds");
  metrics_.solve_seconds = reg->latency("histogram.isomer.solve_seconds");

  // The relation cardinality is a permanent constraint: the max-entropy
  // solution must always integrate to the table size.
  constraints_.push_back({.box = domain, .count = total_tuples});
}

IsomerHistogram::~IsomerHistogram() = default;

size_t IsomerHistogram::bucket_count() const { return bucket_count_ - 1; }

// ---------------------------------------------------------------------------
// Estimation (paper eq. 1, histogram/bucket_tree.h)
// ---------------------------------------------------------------------------

double IsomerHistogram::Estimate(const Box& query) const {
  metrics_.estimates.Inc();
  return index_->Estimate(*root_, query);
}

double IsomerHistogram::EstimateLinear(const Box& query) const {
  return index_->EstimateLinear(*root_, query);
}

void IsomerHistogram::NoteStructureChange() { ++structure_epoch_; }

RobustnessStats IsomerHistogram::robustness() const {
  RobustnessStats stats = stats_;
  stats.rejected_queries += index_->rejected();
  return stats;
}

double IsomerHistogram::TotalFrequency() const {
  return sthist::TotalFrequency(*root_);
}

// ---------------------------------------------------------------------------
// Structure learning (drilling, as STHoles — but mass-conserving)
// ---------------------------------------------------------------------------

void IsomerHistogram::CollectIntersecting(Bucket* b, const Box& query,
                                          std::vector<Bucket*>* out) {
  if (b->box.IntersectionVolume(query) <= 0.0) return;
  out->push_back(b);
  for (const auto& child : b->children) {
    CollectIntersecting(child.get(), query, out);
  }
}

void IsomerHistogram::DrillHole(Bucket* b, const Box& candidate,
                                const CardinalityOracle& oracle) {
  const double eps = DrillTolerance(root_->box);

  // Candidate covers the whole bucket, or coincides with an existing child:
  // the structure already supports the constraint.
  if (candidate.ApproxEquals(b->box, eps)) return;
  for (const auto& child : b->children) {
    if (child->box.ApproxEquals(candidate, eps)) return;
  }

  // Seed the hole with the observed count (as ISOMER's add-hole step does);
  // iterative scaling then reconciles the whole tree with every retained
  // constraint.
  CarveHole(b, std::make_unique<Bucket>(), candidate, oracle, &stats_,
            index_.get());
  ++bucket_count_;
  // Any drill changes region geometry, so constraint plans must rebuild
  // (CarveHole already invalidated the index).
  NoteStructureChange();
}

// ---------------------------------------------------------------------------
// Maximum-entropy reconciliation (iterative proportional scaling)
// ---------------------------------------------------------------------------

namespace {

/// Iterative-scaling rounds per refinement.
constexpr size_t kScalingRounds = 40;

/// Stop scaling early when every retained constraint is satisfied within
/// this relative error.
constexpr double kScalingTolerance = 1e-3;

// Appends the plan node for `b` (bucket `id` of `tree`, already known to
// intersect `box`) and its intersecting descendants in pre-order; returns
// the subtree size. b's hits go to `hits`, each child's after them.
template <typename BucketT, typename NodeT>
uint32_t AppendPlanNode(BucketT* b, uint32_t id,
                        const FlatBucketTree<BucketT>& tree, const Box& box,
                        double min_volume, uint32_t* hits,
                        std::vector<NodeT>* out) {
  typename FlatBucketTree<BucketT>::WalkStats walk;
  const uint32_t k =
      tree.MatchChildren(id, box.lo_data(), box.hi_data(), hits, &walk);
  const uint32_t first = tree.first_child(id);
  NodeT node;
  node.bucket = b;
  // The tree's region volume is bitwise-identical to RegionVolume here:
  // EnsurePlan built the tree against the current structure.
  node.region = tree.region(id);
  // RegionIntersectionVolume, subtracting only intersecting children (the
  // others subtract exact 0.0 in the uncached loop).
  double v = b->box.IntersectionVolume(box);
  for (uint32_t i = 0; i < k; ++i) {
    v -= b->children[hits[i] - first]->box.IntersectionVolume(box);
  }
  node.riv = std::max(v, 0.0);
  node.usable = node.region > min_volume;
  node.contained = box.Contains(b->box);
  const size_t at = out->size();
  out->push_back(node);
  for (uint32_t i = 0; i < k; ++i) {
    (*out)[at].subtree +=
        AppendPlanNode(b->children[hits[i] - first].get(), hits[i], tree, box,
                       min_volume, hits + k, out);
  }
  return (*out)[at].subtree;
}

}  // namespace

void IsomerHistogram::EnsurePlan(Constraint* constraint) {
  if (constraint->plan_epoch == structure_epoch_) return;
  constraint->plan.clear();
  constraint->plan_epoch = structure_epoch_;
  constraint->plan_estimable = IsEstimableQuery(root_->box, constraint->box);

  // Walk the flat tree once; the plan then replays CollectIntersecting's
  // pre-order without ever scanning non-intersecting subtrees.
  const FlatBucketTree<Bucket>& tree = index_->EnsureIndex(*root_);
  const Box& box = constraint->box;
  if (root_->box.IntersectionVolume(box) <= 0.0) return;
  std::vector<uint32_t> hits(tree.size());
  AppendPlanNode(root_.get(), 0, tree, box, MinRegionVolume(root_->box),
                 hits.data(), &constraint->plan);
}

double IsomerHistogram::PlanEstimate(const Constraint& constraint) const {
  STHIST_DCHECK(constraint.plan_epoch == structure_epoch_);
  if (!constraint.plan_estimable) {
    index_->CountRejected();
    return 0.0;
  }
  // Local recursion over the pre-order plan using the subtree extents.
  struct Eval {
    const std::vector<PlanNode>& nodes;
    double At(size_t i) const {
      const PlanNode& n = nodes[i];
      double est = 0.0;
      if (n.usable) {
        double overlap = std::min(n.riv, n.region);
        est += n.bucket->frequency * (overlap / n.region);
      } else if (n.contained) {
        est += n.bucket->frequency;
      }
      const size_t end = i + n.subtree;
      for (size_t j = i + 1; j < end; j += nodes[j].subtree) {
        est += At(j);
      }
      return est;
    }
  };
  if (constraint.plan.empty()) return 0.0;
  return Eval{constraint.plan}.At(0);
}

double IsomerHistogram::ScaleOnce() {
  double worst = 0.0;
  for (Constraint& constraint : constraints_) {
    // The hot loops below used to recompute Estimate(constraint.box) plus
    // every region/overlap volume from scratch on every round; the plan
    // caches that structure-invariant geometry once per structural epoch and
    // replays it bitwise-identically (only frequencies change per round).
    EnsurePlan(&constraint);
    double est = PlanEstimate(constraint);
    double scale_base = std::max(constraint.count, 1.0);
    worst = std::max(worst, std::abs(est - constraint.count) / scale_base);

    if (constraint.plan.empty()) continue;

    if (est > 1e-9) {
      // Multiply each bucket's overlapping portion by count/est.
      double ratio = constraint.count / est;
      for (const PlanNode& node : constraint.plan) {
        if (!node.usable) continue;
        double portion =
            node.bucket->frequency * std::min(node.riv, node.region) /
            node.region;
        node.bucket->frequency =
            std::max(node.bucket->frequency + portion * (ratio - 1.0), 0.0);
      }
    } else if (constraint.count > 0.0) {
      // Nothing to scale: seed mass proportional to overlap volume.
      double total_overlap = 0.0;
      for (const PlanNode& node : constraint.plan) {
        total_overlap += node.riv;
      }
      if (total_overlap <= 0.0) continue;
      for (const PlanNode& node : constraint.plan) {
        node.bucket->frequency +=
            constraint.count * node.riv / total_overlap;
      }
    }
  }
  return worst;
}

void IsomerHistogram::Solve() {
  obs::ScopedTimer solve_timer(metrics_.solve_seconds);
  for (size_t round = 0; round < kScalingRounds; ++round) {
    double worst = ScaleOnce();
    if (worst <= kScalingTolerance) break;
  }

  // Inconsistency handling: drop retained constraints (never the permanent
  // cardinality constraint at the front) that the current structure cannot
  // satisfy — typically regions whose buckets were merged away under the
  // budget. Keeping them would make every future solve thrash.
  for (size_t i = constraints_.size(); i-- > 1;) {
    EnsurePlan(&constraints_[i]);
    double est = PlanEstimate(constraints_[i]);
    double violation = std::abs(est - constraints_[i].count) /
                       std::max(constraints_[i].count, 1.0);
    if (violation > kInconsistencyThreshold) {
      constraints_.erase(constraints_.begin() + static_cast<ptrdiff_t>(i));
    }
  }
}

double IsomerHistogram::MaxConstraintViolation() const {
  double worst = 0.0;
  for (const Constraint& constraint : constraints_) {
    double est = Estimate(constraint.box);
    worst = std::max(worst, std::abs(est - constraint.count) /
                                std::max(constraint.count, 1.0));
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Refinement
// ---------------------------------------------------------------------------

void IsomerHistogram::Refine(const Box& query,
                             const CardinalityOracle& oracle) {
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

  // Record the feedback constraint (sliding window; the permanent relation
  // cardinality constraint at the front never ages out). The sanitized count
  // is finite and non-negative, so the scaling passes stay well-defined.
  double count = safe.Count(q);
  constraints_.push_back({.box = q, .count = count});
  while (constraints_.size() > config_.max_constraints) {
    constraints_.erase(constraints_.begin() + 1);
  }

  // Grow structure for the query, as STHoles does.
  std::vector<Bucket*> intersecting;
  CollectIntersecting(root_.get(), q, &intersecting);
  for (Bucket* b : intersecting) {
    Box candidate = ShrinkCandidate(*b, q);
    if (candidate.Volume() <= min_volume) continue;
    DrillHole(b, candidate, safe);
  }

  EnforceBudget();
  Solve();
  metrics_.constraints.Set(static_cast<double>(constraint_count()));
}

// ---------------------------------------------------------------------------
// Budget: parent-child merges of the most redundant child
// ---------------------------------------------------------------------------

void IsomerHistogram::EnforceBudget() {
  while (bucket_count() > config_.max_buckets) {
    // Find the (parent, child) pair with the smallest density disagreement,
    // weighted by the child's region volume: removing it changes the
    // max-entropy solution the least.
    Bucket* best_parent = nullptr;
    size_t best_child = 0;
    double best_penalty = std::numeric_limits<double>::infinity();

    std::vector<Bucket*> stack = {root_.get()};
    while (!stack.empty()) {
      Bucket* parent = stack.back();
      stack.pop_back();
      double vp = RegionVolume(*parent);
      double parent_density = vp > 0.0 ? parent->frequency / vp : 0.0;
      for (size_t i = 0; i < parent->children.size(); ++i) {
        Bucket* child = parent->children[i].get();
        stack.push_back(child);
        double vc = RegionVolume(*child);
        double child_density = vc > 0.0 ? child->frequency / vc : 0.0;
        double penalty = std::abs(child_density - parent_density) * vc;
        if (penalty < best_penalty) {
          best_penalty = penalty;
          best_parent = parent;
          best_child = i;
        }
      }
    }
    if (best_parent == nullptr) return;

    Bucket* child = best_parent->children[best_child].get();
    best_parent->frequency += child->frequency;
    std::unique_ptr<Bucket> owned =
        std::move(best_parent->children[best_child]);
    best_parent->children.erase(best_parent->children.begin() +
                                static_cast<ptrdiff_t>(best_child));
    for (auto& grandchild : owned->children) {
      best_parent->children.push_back(std::move(grandchild));
    }
    --bucket_count_;
    // The merge moved buckets between children lists and deleted one:
    // index references and plan Bucket pointers are both stale.
    NoteStructureChange();
    index_->InvalidateIndex();
  }
}

void IsomerHistogram::CheckInvariants() const {
  CheckBucketTree(*root_, bucket_count_);
}

}  // namespace sthist
