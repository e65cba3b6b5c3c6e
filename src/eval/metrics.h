#ifndef STHIST_EVAL_METRICS_H_
#define STHIST_EVAL_METRICS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "histogram/histogram.h"
#include "workload/workload.h"

namespace sthist {

/// Mean absolute estimation error over a workload (paper eq. 9):
/// E(H, W) = (1/|W|) * sum_q |est(H, q) - real(q)|.
/// Does not refine the histogram.
double MeanAbsoluteError(const Histogram& hist, const Workload& workload,
                         const CardinalityOracle& oracle);

/// Runs the workload as a simulation: measures |est - real| for each query
/// and, when `learn` is true, refines the histogram with the query's
/// feedback before moving on (the paper's default simulation mode). Returns
/// the mean absolute error across the workload.
double SimulateAndMeasure(Histogram* hist, const Workload& workload,
                          const CardinalityOracle& oracle, bool learn);

/// Variant with distinct oracles for measurement and refinement feedback.
/// Fault-injection runs measure true accuracy against `measure_oracle`
/// (the real engine) while the histogram learns from the possibly-corrupted
/// `feedback_oracle`.
double SimulateAndMeasure(Histogram* hist, const Workload& workload,
                          const CardinalityOracle& measure_oracle,
                          const CardinalityOracle& feedback_oracle,
                          bool learn);

/// Trains the histogram on the workload (refinement only, no measurement).
void Train(Histogram* hist, const Workload& workload,
           const CardinalityOracle& oracle);

/// Normalized absolute error (paper eq. 10): E(H, W) / E(H0, W) where H0 is
/// the trivial one-bucket histogram over `domain` with `total_tuples` mass.
double NormalizedAbsoluteError(double mean_absolute_error, const Box& domain,
                               double total_tuples, const Workload& workload,
                               const CardinalityOracle& oracle);

/// The paper's Definition-1 permutation-sensitivity measurement, packaged so
/// regression tests can pin it: how much a histogram's final error moves when
/// the learning workload is reordered.
struct SensitivityResult {
  /// Error after training on the workload in its given order.
  double base_error = 0.0;
  /// max over the permutations of |error(π(W)) - base_error|.
  double max_delta = 0.0;
  /// max_delta / base_error — the scale-free number to pin in regression
  /// tests (delta-sensitivity relative to the unpermuted error). NaN when
  /// base_error is 0.
  double relative() const { return max_delta / base_error; }
};

/// Trains one independently constructed histogram per ordering — the given
/// `train` plus one Permuted(train, seed) per seed — and measures each with
/// MeanAbsoluteError over `probes` (no refinement during measurement).
/// `make_histogram` must return a fresh histogram in the same initial state
/// on every call; determinism of the result follows from the factory's.
SensitivityResult PermutationSensitivity(
    const std::function<std::unique_ptr<Histogram>()>& make_histogram,
    const Workload& train, const Workload& probes,
    const CardinalityOracle& oracle, std::span<const uint64_t> perm_seeds);

}  // namespace sthist

#endif  // STHIST_EVAL_METRICS_H_
