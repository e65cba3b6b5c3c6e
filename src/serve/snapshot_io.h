#ifndef STHIST_SERVE_SNAPSHOT_IO_H_
#define STHIST_SERVE_SNAPSHOT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"

/// \file
/// The versioned binary snapshot container of the serving layer (DESIGN.md
/// §17), layered over the same frame primitive as the STHoles bucket blob
/// (core/binfmt.h):
///
///   "STHF" — one ServiceFleet: the fleet seed plus, per tenant, its key,
///            estimator name, applied-feedback watermark, and histogram blob
///            ("STHB", "STHK", ...), in sorted key order. The watermark is
///            what warm restart needs to resume a deterministic feedback
///            stream where the saved run left off.
///
/// The nested histogram blobs stay opaque here — they carry their own frame
/// and are decoded through the estimator registry (RestoreHistogram
/// dispatches on each blob's own magic), so corruption inside a tenant's
/// payload is caught by that layer even though this one's checksum would
/// already have flagged it. The stored estimator name makes snapshots
/// self-describing for operators. The decoder cross-checks it against the
/// blob's magic and rejects empty, duplicate, or unsorted keys — files
/// SaveSnapshot never writes and a restore would refuse. Every decode fails
/// closed with a Status naming the offending tenant's index.

namespace sthist {
namespace snapshot_io {

/// Version of the fleet container format. Evolution policy (DESIGN.md
/// §17): any layout change bumps this, old numbers are never reused, and
/// readers reject mismatches naming both versions. Version 2 added the
/// estimator registry name (version 1 assumed STHoles); version 3 added the
/// per-tenant applied-feedback watermark.
inline constexpr uint32_t kFormatVersion = 3;

/// One tenant's persisted state inside a fleet snapshot.
struct FleetTenant {
  /// Caller-visible tenant key.
  std::string key;
  /// Registry name of the tenant's estimator ("stholes", "kde", ...),
  /// derived from the blob's magic at save time (EstimatorNameForBlob).
  std::string estimator;
  /// Feedback items the tenant had applied and published when its snapshot
  /// was cut, cumulative over restores (the Drain barrier makes this exact,
  /// DESIGN.md §17).
  uint64_t applied_feedback = 0;
  /// The tenant histogram's SerializeBinary() blob.
  std::string histogram;
};

/// One fleet's persisted state: per-tenant histogram blobs keyed by the
/// caller-visible tenant key.
struct FleetSnapshot {
  /// FleetConfig::seed of the saved fleet; restore must reuse it so tenant
  /// ids and shard routing reproduce.
  uint64_t seed = 0;
  std::vector<FleetTenant> tenants;
};

std::string EncodeFleetSnapshot(const FleetSnapshot& snapshot);
StatusOr<FleetSnapshot> DecodeFleetSnapshot(std::string_view bytes);

/// Writes `bytes` to `path` atomically: a unique temp file in the same
/// directory, then rename over the target — a reader (or a crash) sees the
/// old file or the new one, never a torn prefix.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

/// Reads the whole file. kNotFound when it does not exist.
StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace snapshot_io
}  // namespace sthist

#endif  // STHIST_SERVE_SNAPSHOT_IO_H_
