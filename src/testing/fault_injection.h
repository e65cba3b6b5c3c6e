#ifndef STHIST_TESTING_FAULT_INJECTION_H_
#define STHIST_TESTING_FAULT_INJECTION_H_

#include <cstdint>

#include "core/box.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "histogram/histogram.h"
#include "workload/workload.h"

/// \file
/// Deterministic adversarial fault injection for robustness testing.
///
/// Every injector is driven by a seeded RNG so a failing run reproduces
/// exactly. The injectors corrupt the three untrusted inputs of the tuning
/// pipeline: datasets (malformed tuples), workloads (malformed query boxes)
/// and feedback oracles (malformed cardinalities, simulating an engine under
/// drift or partial failure). They are used by tests/robustness_test.cc,
/// bench/bench_robustness.cc, the experiment runner's fault mode, and the
/// CLI's --fault-* flags.

namespace sthist {

/// Knobs for all three injectors. `rate` is the per-item corruption
/// probability; 0 disables injection entirely.
struct FaultConfig {
  double rate = 0.0;
  uint64_t seed = 99;

  /// Multiplicative noise span for noisy cardinalities: a corrupted count is
  /// scaled by a factor drawn from [1/noise_factor, noise_factor].
  double noise_factor = 4.0;
};

/// Returns a copy of `data` where ~rate of the tuples are corrupted: one
/// attribute set to NaN, +/-infinity, or displaced far outside `domain`.
/// Corruption kinds cycle deterministically from the seed.
Dataset CorruptDataset(const Dataset& data, const Box& domain,
                       const FaultConfig& config);

/// Returns a copy of `data` with non-finite tuples dropped — the ingestion
/// repair a service applies after Dataset::Validate flags corruption. The
/// number of dropped tuples is written to `dropped` when non-null.
Dataset DropNonFiniteTuples(const Dataset& data, size_t* dropped);

/// Returns a copy of `workload` where ~rate of the query boxes are
/// corrupted: NaN bounds, inverted intervals, zero-extent intervals, or
/// boxes shifted entirely outside `domain`. Inverted and NaN boxes are
/// built through the Box mutators, bypassing the constructor's invariant —
/// exactly what a buggy client could hand a service.
Workload CorruptWorkload(const Workload& workload, const Box& domain,
                         const FaultConfig& config);

/// CardinalityOracle wrapper corrupting ~rate of its answers with, in
/// rotation: NaN, a negative count, multiplicative noise, or a stale answer
/// (the previous query's count — simulating feedback lag under drift).
/// Deterministic from the seed; answers for uncorrupted queries pass
/// through untouched.
class FaultyOracle : public CardinalityOracle {
 public:
  /// `inner` must outlive the wrapper.
  FaultyOracle(const CardinalityOracle& inner, const FaultConfig& config);

  double Count(const Box& box) const override;

  /// Number of corrupted answers handed out so far.
  size_t faults_injected() const { return faults_injected_; }

 private:
  const CardinalityOracle& inner_;
  FaultConfig config_;
  // The oracle interface is const; corruption state is bookkeeping.
  mutable Rng rng_;
  mutable double stale_count_ = 0.0;
  mutable size_t calls_ = 0;
  mutable size_t faults_injected_ = 0;
};

}  // namespace sthist

#endif  // STHIST_TESTING_FAULT_INJECTION_H_
