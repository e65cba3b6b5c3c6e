#include "serve/snapshot_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/binfmt.h"
#include "histogram/registry.h"

namespace sthist {
namespace snapshot_io {

namespace {

constexpr char kFleetMagic[] = "STHF";

/// Reads a u64-length-prefixed byte string at `*cursor`, bounds-checked
/// against `end`. Advances the cursor past the field on success.
Status ReadLengthPrefixed(const char** cursor, const char* end,
                          const char* what, std::string* out) {
  if (end - *cursor < 8) {
    return StatusF(StatusCode::kInvalidArgument,
                   "snapshot truncated inside the %s length", what);
  }
  const uint64_t size = binfmt::ReadU64(*cursor);
  *cursor += 8;
  if (size > static_cast<uint64_t>(end - *cursor)) {
    return StatusF(StatusCode::kInvalidArgument,
                   "snapshot %s claims %llu bytes but only %zu remain", what,
                   static_cast<unsigned long long>(size),
                   static_cast<size_t>(end - *cursor));
  }
  out->assign(*cursor, size);
  *cursor += size;
  return Status::Ok();
}

}  // namespace

std::string EncodeFleetSnapshot(const FleetSnapshot& snapshot) {
  std::string payload;
  binfmt::AppendU64(&payload, snapshot.seed);
  binfmt::AppendU64(&payload, snapshot.tenants.size());
  for (const FleetTenant& tenant : snapshot.tenants) {
    binfmt::AppendU64(&payload, tenant.key.size());
    payload.append(tenant.key);
    binfmt::AppendU64(&payload, tenant.estimator.size());
    payload.append(tenant.estimator);
    binfmt::AppendU64(&payload, tenant.applied_feedback);
    binfmt::AppendU64(&payload, tenant.histogram.size());
    payload.append(tenant.histogram);
  }
  return binfmt::Frame(kFleetMagic, kFormatVersion, payload);
}

StatusOr<FleetSnapshot> DecodeFleetSnapshot(std::string_view bytes) {
  StatusOr<std::string_view> framed =
      binfmt::Unframe(kFleetMagic, kFormatVersion, bytes);
  if (!framed.ok()) return framed.status();
  const std::string_view payload = *framed;
  if (payload.size() < 16) {
    return Status::InvalidArgument(
        "fleet snapshot payload shorter than its seed/tenant-count preamble");
  }
  FleetSnapshot snapshot;
  snapshot.seed = binfmt::ReadU64(payload.data());
  const uint64_t tenant_count = binfmt::ReadU64(payload.data() + 8);
  // Every tenant carries three length prefixes and its watermark; a count
  // the payload cannot possibly hold is rejected before the reserve scales
  // with it.
  if (tenant_count > (payload.size() - 16) / 32) {
    return StatusF(StatusCode::kInvalidArgument,
                   "fleet snapshot claims %llu tenants but holds only "
                   "%zu payload bytes",
                   static_cast<unsigned long long>(tenant_count),
                   payload.size());
  }
  snapshot.tenants.reserve(tenant_count);
  const char* cursor = payload.data() + 16;
  const char* end = payload.data() + payload.size();
  for (uint64_t i = 0; i < tenant_count; ++i) {
    FleetTenant tenant;
    STHIST_RETURN_IF_ERROR(
        ReadLengthPrefixed(&cursor, end, "tenant key", &tenant.key));
    STHIST_RETURN_IF_ERROR(ReadLengthPrefixed(&cursor, end,
                                              "tenant estimator name",
                                              &tenant.estimator));
    if (end - cursor < 8) {
      return Status::InvalidArgument(
          "snapshot truncated inside a tenant's feedback watermark");
    }
    tenant.applied_feedback = binfmt::ReadU64(cursor);
    cursor += 8;
    STHIST_RETURN_IF_ERROR(ReadLengthPrefixed(
        &cursor, end, "tenant histogram blob", &tenant.histogram));
    // SaveSnapshot writes sorted unique non-empty keys and labels each blob
    // by its own magic; anything else would decode here only to be refused
    // by a restore.
    const unsigned long long index = i;
    if (tenant.key.empty()) {
      return StatusF(StatusCode::kInvalidArgument,
                     "fleet snapshot tenant %llu has an empty key", index);
    }
    if (i > 0 && tenant.key <= snapshot.tenants.back().key) {
      return StatusF(StatusCode::kInvalidArgument,
                     "fleet snapshot tenant %llu key '%s' does not sort "
                     "strictly after '%s' (keys are saved sorted and unique)",
                     index, tenant.key.c_str(),
                     snapshot.tenants.back().key.c_str());
    }
    const std::string_view blob_estimator =
        EstimatorNameForBlob(tenant.histogram);
    if (tenant.estimator != blob_estimator) {
      return StatusF(StatusCode::kInvalidArgument,
                     "fleet snapshot tenant %llu ('%s') is labelled "
                     "estimator '%s' but its histogram blob is '%.*s'",
                     index, tenant.key.c_str(), tenant.estimator.c_str(),
                     static_cast<int>(blob_estimator.size()),
                     blob_estimator.data());
    }
    snapshot.tenants.push_back(std::move(tenant));
  }
  if (cursor != end) {
    return Status::InvalidArgument(
        "fleet snapshot has trailing bytes after the last tenant");
  }
  return snapshot;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return StatusF(StatusCode::kIoError, "cannot open %s for writing: %s",
                   tmp.c_str(), std::strerror(errno));
  }
  const size_t written = bytes.empty()
                             ? 0
                             : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  if (std::fclose(f) != 0 || written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return StatusF(StatusCode::kIoError, "short write to %s", tmp.c_str());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return StatusF(StatusCode::kIoError, "cannot rename %s over %s: %s",
                   tmp.c_str(), path.c_str(), std::strerror(errno));
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return StatusF(StatusCode::kNotFound, "cannot open %s: %s", path.c_str(),
                   std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return StatusF(StatusCode::kIoError, "read error on %s", path.c_str());
  }
  return out;
}

}  // namespace snapshot_io
}  // namespace sthist
