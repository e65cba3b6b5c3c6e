#ifndef STHIST_WORKLOAD_DRIFT_H_
#define STHIST_WORKLOAD_DRIFT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/box.h"
#include "core/status.h"
#include "data/generators.h"
#include "histogram/histogram.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {

/// \file
/// Drifting workload generation (DESIGN.md §14).
///
/// The paper's contribution is *initial-state* quality: a MineClus-seeded
/// STHoles resists the stagnation of Lemmas 1–3 for the distribution it was
/// initialized on. Production data drifts, so a deployed service regresses
/// to exactly the stuck states the paper fixes offline. These generators
/// produce the drifting streams that provoke the regression — each scenario
/// is a sequence of *phases*, every phase pairing a data snapshot (the
/// ground truth active while the phase plays) with the query workload issued
/// against it. Everything is derived from the schedule seed through
/// DeriveSeed, so a schedule is bitwise-reproducible and replayable
/// (tests/drift_test.cc pins determinism and golden trajectories).

/// The drift scenario families (ROADMAP item 4).
enum class DriftScenario {
  /// The Cross dataset's bands translate across the domain phase by phase:
  /// the same tuple draws, shifted band centers — clusters *move*, queries
  /// follow the data.
  kMovingCross,
  /// A fixed pool of subspace Gaussian clusters; each phase activates a
  /// sliding subset, so clusters appear and vanish between phases.
  kClusterChurn,
  /// Fixed data; the query distribution concentrates inside a small hotspot
  /// box that jumps to a new location every phase (selectivity hotspots).
  kHotspot,
  /// Fixed data and query set; each phase replays the queries in an
  /// adversarial order (lexicographic position sweeps, alternating axis and
  /// direction) — the pathological learning orders of Definition 1.
  kAdversarial,
};

/// Parses a scenario name as spelled on the CLI: "cross-move", "churn",
/// "hotspot", "adversarial".
StatusOr<DriftScenario> ParseDriftScenario(std::string_view name);

/// Printable scenario name (the CLI spelling).
const char* DriftScenarioName(DriftScenario scenario);

/// kClusterChurn: size of the cluster pool that the active window slides
/// over.
constexpr size_t kChurnPool = 6;

/// Shape of a drifting stream. Composes with WorkloadConfig: the workload
/// config supplies the per-phase query count, volume fraction, and (where a
/// scenario does not dictate its own placement) the center distribution;
/// DriftConfig supplies the drift structure on top.
struct DriftConfig {
  DriftScenario scenario = DriftScenario::kMovingCross;

  /// Number of distribution phases. Phase boundaries are where the ground
  /// truth changes under the serving layer.
  size_t phases = 4;

  /// Master seed; every phase's data and query streams are derived from it
  /// via DeriveSeed (never seed+k — see core/rng.h).
  uint64_t seed = 17;

  /// Data dimensionality (cross/adversarial/hotspot; churn clamps its
  /// Gaussian subspace sizes into this).
  size_t dim = 2;

  /// Approximate tuples per phase snapshot (split ~10:1 cluster:noise the
  /// way the paper's Cross is).
  size_t tuples = 22000;

  /// kMovingCross: total band-center travel across all phases, as a
  /// fraction of the domain extent (phase p sits at
  /// (p/(phases-1) - 0.5) * move_span, clamped so bands stay inside).
  double move_span = 0.6;

  /// kClusterChurn: how many clusters of the kChurnPool-sized pool are
  /// active per phase (a sliding window over the pool).
  size_t churn_active = 3;

  /// kHotspot: hotspot volume as a fraction of the domain volume.
  double hotspot_volume_fraction = 0.02;
};

/// Validates a DriftConfig from an untrusted source (CLI flags).
Status Validate(const DriftConfig& config);

/// One phase of a drifting run.
struct DriftPhase {
  /// The ground truth active while this phase plays (data + planted truth).
  /// (The member initializer is a placeholder — Dataset has no empty state —
  /// and is always overwritten by MakeDriftSchedule.)
  GeneratedData data{Dataset(1), Box(), {}};
  /// The queries issued during the phase, in replay order.
  Workload queries;
};

/// A fully materialized drifting stream: an ordered sequence of phases over
/// one shared domain (the histogram's domain never changes; only the mass
/// inside it moves). Immutable after construction.
class DriftSchedule {
 public:
  DriftScenario scenario() const { return scenario_; }
  const Box& domain() const { return domain_; }
  size_t phase_count() const { return phases_.size(); }
  const DriftPhase& phase(size_t i) const { return phases_[i]; }
  size_t total_queries() const;

 private:
  friend StatusOr<DriftSchedule> MakeDriftSchedule(const DriftConfig&,
                                                   const WorkloadConfig&);
  DriftScenario scenario_ = DriftScenario::kMovingCross;
  Box domain_;
  std::vector<DriftPhase> phases_;
};

/// Builds the drifting stream for `drift`, taking the per-phase query count,
/// query volume, and center preference from `workload` (WorkloadConfig::seed
/// is ignored — the schedule's streams derive from DriftConfig::seed so one
/// knob replays the whole run). Deterministic: equal configs produce
/// bitwise-identical schedules regardless of caller threading.
StatusOr<DriftSchedule> MakeDriftSchedule(const DriftConfig& drift,
                                          const WorkloadConfig& workload);

/// CardinalityOracle over a DriftSchedule: answers from the active phase's
/// executor (one counting k-d tree per phase, built up front). The replay
/// driver advances the phase at phase boundaries; Count is safe from any
/// thread concurrently with SetPhase (the phase index is atomic), though a
/// deterministic replay drains in-flight feedback before advancing. The
/// schedule must outlive the oracle.
class PhasedOracle : public CardinalityOracle {
 public:
  explicit PhasedOracle(const DriftSchedule& schedule);

  double Count(const Box& box) const override;

  /// Activates phase `p` (< phase_count). Subsequent Counts answer from it.
  void SetPhase(size_t p);
  size_t phase() const { return phase_.load(std::memory_order_acquire); }
  size_t phase_count() const { return executors_.size(); }

 private:
  std::vector<std::unique_ptr<Executor>> executors_;
  std::atomic<size_t> phase_{0};
};

}  // namespace sthist

#endif  // STHIST_WORKLOAD_DRIFT_H_
