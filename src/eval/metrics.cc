#include "eval/metrics.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "histogram/trivial.h"

namespace sthist {

double MeanAbsoluteError(const Histogram& hist, const Workload& workload,
                         const CardinalityOracle& oracle) {
  STHIST_CHECK(!workload.empty());
  double total = 0.0;
  for (const Box& q : workload) {
    total += std::abs(hist.Estimate(q) - oracle.Count(q));
  }
  return total / static_cast<double>(workload.size());
}

double SimulateAndMeasure(Histogram* hist, const Workload& workload,
                          const CardinalityOracle& oracle, bool learn) {
  return SimulateAndMeasure(hist, workload, oracle, oracle, learn);
}

double SimulateAndMeasure(Histogram* hist, const Workload& workload,
                          const CardinalityOracle& measure_oracle,
                          const CardinalityOracle& feedback_oracle,
                          bool learn) {
  STHIST_CHECK(hist != nullptr);
  STHIST_CHECK(!workload.empty());
  if (!learn) return MeanAbsoluteError(*hist, workload, measure_oracle);
  double total = 0.0;
  for (const Box& q : workload) {
    total += std::abs(hist->Estimate(q) - measure_oracle.Count(q));
    hist->Refine(q, feedback_oracle);
  }
  return total / static_cast<double>(workload.size());
}

void Train(Histogram* hist, const Workload& workload,
           const CardinalityOracle& oracle) {
  STHIST_CHECK(hist != nullptr);
  for (const Box& q : workload) {
    hist->Refine(q, oracle);
  }
}

double NormalizedAbsoluteError(double mean_absolute_error, const Box& domain,
                               double total_tuples, const Workload& workload,
                               const CardinalityOracle& oracle) {
  TrivialHistogram trivial(domain, total_tuples);
  double base = MeanAbsoluteError(trivial, workload, oracle);
  STHIST_CHECK_MSG(base > 0.0, "trivial histogram has zero error");
  return mean_absolute_error / base;
}

SensitivityResult PermutationSensitivity(
    const std::function<std::unique_ptr<Histogram>()>& make_histogram,
    const Workload& train, const Workload& probes,
    const CardinalityOracle& oracle, std::span<const uint64_t> perm_seeds) {
  STHIST_CHECK(!train.empty());
  auto trained_error = [&](const Workload& order) {
    std::unique_ptr<Histogram> hist = make_histogram();
    STHIST_CHECK(hist != nullptr);
    Train(hist.get(), order, oracle);
    return MeanAbsoluteError(*hist, probes, oracle);
  };
  SensitivityResult result;
  result.base_error = trained_error(train);
  for (uint64_t seed : perm_seeds) {
    double err = trained_error(Permuted(train, seed));
    result.max_delta =
        std::max(result.max_delta, std::abs(err - result.base_error));
  }
  return result;
}

}  // namespace sthist
