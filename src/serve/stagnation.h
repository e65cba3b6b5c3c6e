#ifndef STHIST_SERVE_STAGNATION_H_
#define STHIST_SERVE_STAGNATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/box.h"
#include "core/reservoir.h"
#include "core/rng.h"
#include "core/status.h"
#include "data/dataset.h"

namespace sthist {

/// \file
/// Stagnation detection and the feedback reservoir (DESIGN.md §14).
///
/// The paper's initialization fixes stagnation (Lemmas 1–3) *offline*; under
/// drift the served histogram regresses back into stuck states at runtime.
/// These two pieces close the loop inside every ServiceFleet tenant added
/// with re-init (TenantOptions::reinit): the detector watches a rolling NAE
/// of served estimates against the trivial-histogram control (paper eq. 10,
/// windowed), and the reservoir maintains a deterministic sample of recent
/// feedback so a re-initialization has data to cluster when the detector
/// fires. Both are single-threaded by contract — only the pool worker
/// holding the tenant's claim touches them, never a read path.

/// Knobs for the stagnation detector.
struct StagnationConfig {
  /// Observations in the rolling window. The detector never fires before the
  /// window has filled once (warmup), so the trigger is a sustained-quality
  /// signal, not a single bad estimate.
  size_t window = 256;

  /// Fire when the rolling NAE (windowed MAE / windowed trivial MAE) reaches
  /// this value: 1.0 means "no better than knowing only the row count".
  double trigger_nae = 0.9;

  /// Hysteresis: after a trigger the detector re-arms only once the rolling
  /// NAE has recovered below this (strictly less than trigger_nae), so a
  /// histogram oscillating around the trigger cannot flap rebuilds.
  double rearm_nae = 0.7;

  /// Minimum observations between a trigger and re-arming (the cooldown —
  /// gives the rebuilt histogram time to show up in the window).
  size_t cooldown = 512;

  /// Backstop: re-arm unconditionally after this many post-trigger
  /// observations even if the NAE never recovered below rearm_nae —
  /// otherwise one failed rebuild would disable detection forever.
  size_t retrigger_backstop = 4096;
};

/// Validates a StagnationConfig from an untrusted source (CLI flags).
Status Validate(const StagnationConfig& config);

/// Rolling-NAE stagnation detector with hysteresis (DESIGN.md §14).
///
/// State machine: kWarmup (window filling) → kArmed (may fire) → kCooldown
/// (fired or swapped; waiting for cooldown + recovery below rearm_nae, or
/// the backstop) → kArmed. Purely deterministic: equal observation sequences
/// produce equal trigger sequences. Not thread-safe — refiner-thread only.
class StagnationDetector {
 public:
  enum class State { kWarmup, kArmed, kCooldown };

  explicit StagnationDetector(const StagnationConfig& config);

  /// Records one feedback observation (the served estimate, the trivial
  /// control's estimate, and the observed actual cardinality). Returns true
  /// when this observation fires the trigger — the caller starts a rebuild
  /// and the detector enters cooldown. Non-finite inputs are skipped.
  bool Observe(double estimate, double trivial_estimate, double actual);

  /// Tells the detector a rebuilt histogram was swapped in: the window is
  /// cleared (old estimates say nothing about the new histogram) and the
  /// detector cools down until the window refills and recovery holds.
  void NoteSwap();

  /// Windowed MAE / windowed trivial MAE — the rolling analogue of paper
  /// eq. 10. Returns NAN until the window has at least one observation.
  double RollingNae() const;

  State state() const { return state_; }
  bool window_full() const { return filled_ == config_.window; }
  size_t observations() const { return observations_; }
  size_t triggers() const { return triggers_; }

 private:
  void ClearWindow();

  const StagnationConfig config_;
  State state_ = State::kWarmup;

  // Ring buffers of per-observation absolute errors; sums are recomputed
  // exactly on every wrap so the subtract-add accumulators cannot drift
  // from the window contents.
  std::vector<double> err_;
  std::vector<double> trivial_err_;
  size_t next_ = 0;
  size_t filled_ = 0;
  double err_sum_ = 0.0;
  double trivial_sum_ = 0.0;

  size_t observations_ = 0;
  size_t since_trigger_ = 0;
  size_t triggers_ = 0;
};

/// Knobs for the feedback reservoir.
struct ReservoirConfig {
  /// Points retained. The re-initialization clusters exactly these.
  size_t capacity = 2048;

  /// Each feedback box contributes m = clamp(ceil(actual / tuples_per_point),
  /// 1, max_points_per_feedback) synthetic points drawn uniformly inside it,
  /// so denser regions weigh more in the sample, the way feedback-kde's
  /// maintained sample tracks the workload's data view.
  size_t max_points_per_feedback = 8;
  double tuples_per_point = 64.0;

  /// Recency bias: every age_interval feedback items the virtual stream
  /// length is halved, so newer feedback displaces old at a boosted rate —
  /// a drifted distribution washes stale phases out of the sample.
  /// 0 disables ageing (plain Algorithm R over the whole stream).
  size_t age_interval = 4096;

  uint64_t seed = 4242;
};

/// Validates a ReservoirConfig from an untrusted source (CLI flags).
Status Validate(const ReservoirConfig& config);

/// Deterministic reservoir sample over the feedback stream. Feedback arrives
/// as (box, actual-count) pairs — the fleet never sees tuples, so this
/// wrapper synthesizes count-weighted points uniformly inside each feedback
/// box and offers them to a shared core Reservoir<Point> (Algorithm R +
/// ageing, DESIGN.md §18). Not thread-safe — refiner-thread only.
class FeedbackReservoir {
 public:
  FeedbackReservoir(size_t dim, const ReservoirConfig& config);

  /// Folds one feedback item into the sample. Non-finite or non-positive
  /// actual counts contribute nothing (the robustness layer clamps them
  /// before refinement; the reservoir just skips).
  void Add(const Box& box, double actual);

  /// Points currently held (<= capacity).
  size_t size() const { return reservoir_.size(); }
  size_t dim() const { return dim_; }
  size_t feedbacks_seen() const { return feedbacks_; }

  /// Materializes the sample for clustering. Row order is the internal slot
  /// order — deterministic for a fixed feedback sequence.
  Dataset ToDataset() const;

  /// Empties the sample and restarts the stream counter (the RNGs are NOT
  /// reset: the reservoir remains deterministic over the whole life of the
  /// tenant, not per-epoch).
  void Clear();

 private:
  const size_t dim_;
  const ReservoirConfig config_;
  Rng synth_rng_;               // Coordinate synthesis stream.
  Reservoir<Point> reservoir_;  // Slot-selection stream lives inside.
  size_t feedbacks_ = 0;
  Point scratch_;
};

}  // namespace sthist

#endif  // STHIST_SERVE_STAGNATION_H_
