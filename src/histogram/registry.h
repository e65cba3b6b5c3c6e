#ifndef STHIST_HISTOGRAM_REGISTRY_H_
#define STHIST_HISTOGRAM_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/box.h"
#include "core/status.h"
#include "data/dataset.h"
#include "histogram/histogram.h"

namespace sthist {

/// \file
/// The estimator registry (DESIGN.md §18): every Histogram implementation is
/// constructible by name from one config, so the CLI, the experiment runner,
/// the snapshot-restore paths, and the test batteries enumerate
/// RegisteredNames() instead of hard-coding per-implementation switches — a
/// new estimator registered here joins every harness automatically.

/// One construction config covering every registered estimator family.
/// Each family starts from its own config's defaults, and the generic knobs
/// below (buckets, seed, the per-dim resolutions) are applied onto it at
/// construction. Metrics go to the process-wide GlobalMetrics().
struct HistogramConfig {
  /// The data domain (root box) — required by every family.
  Box domain;

  /// Total relation cardinality — required by the self-tuning families
  /// (trivial, stgrid, isomer, stholes, kde).
  double total_tuples = 0.0;

  /// The relation itself — required by the statically built families
  /// (equiwidth, avi, sampling, mhist); may be nullptr otherwise.
  const Dataset* data = nullptr;

  /// Generic synopsis budget: bucket budget for mhist/isomer/stholes, the
  /// sample size for sampling/kde, and the source of the derived per-dim
  /// resolutions below when they are 0.
  size_t buckets = 100;

  /// Base seed for the sampled families (sampling, kde). Derived per family
  /// role, so one experiment seed never aliases streams across estimators.
  uint64_t seed = 5;

  /// Per-dimension grid resolution for equiwidth and stgrid; 0 derives
  /// round(buckets^(1/dim)) (floored at 2).
  size_t cells_per_dim = 0;

  /// Per-dimension bucket count for avi; 0 derives max(1, buckets / dim).
  size_t buckets_per_dim = 0;
};

/// Names accepted by MakeHistogram, in canonical (stable) order.
const std::vector<std::string>& RegisteredNames();

/// Constructs the estimator registered under `name`. Unknown names return
/// kNotFound listing the registered names; a family whose inputs are missing
/// (no dataset for a statically built family, empty dataset for sampling)
/// returns kInvalidArgument.
StatusOr<std::unique_ptr<Histogram>> MakeHistogram(
    std::string_view name, const HistogramConfig& config);

/// Registry name of the estimator that produced a binary snapshot blob
/// (dispatch on the 4-byte magic: "STHB" → stholes, "STHK" → kde), or the
/// empty string for an unrecognized blob.
std::string_view EstimatorNameForBlob(std::string_view blob);

/// Reconstructs a histogram from a SerializeBinary blob, dispatching on the
/// blob's magic to the owning implementation's DeserializeBinary. `config`
/// supplies the budget and seed exactly as it does for MakeHistogram; all
/// replayed state comes from the blob. Fails closed on unrecognized magics
/// and on any framing violation.
StatusOr<std::unique_ptr<Histogram>> RestoreHistogram(
    std::string_view blob, const HistogramConfig& config);

}  // namespace sthist

#endif  // STHIST_HISTOGRAM_REGISTRY_H_
