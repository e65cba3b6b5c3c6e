#include "serve/service_fleet.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/check.h"
#include "core/rng.h"
#include "histogram/registry.h"
#include "serve/snapshot_io.h"

namespace sthist {

namespace {

/// FNV-1a over the tenant key's bytes: the structured input DeriveSeed mixes
/// with the fleet seed. FNV alone is too weak for seed independence, but as
/// the `role` of a SplitMix64 double-mix it only has to separate distinct
/// keys, which it does.
uint64_t HashKey(std::string_view key) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Maximum characters of a tenant key carried into a metric label: names
/// must stay short and printable whatever the caller uses as keys.
constexpr size_t kMaxLabelChars = 24;

/// Folds a tenant key into a metric-name-safe label: [A-Za-z0-9_] kept,
/// everything else replaced by '_', truncated, never empty. Distinct keys
/// may collide after sanitization — acceptable, because per-shard cells are
/// a capped debugging aid, not the source of truth (the aggregate
/// serve.fleet.* cells are).
std::string SanitizeLabel(std::string_view key) {
  std::string label;
  label.reserve(std::min(key.size(), kMaxLabelChars));
  for (const char c : key) {
    if (label.size() >= kMaxLabelChars) break;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    label.push_back(ok ? c : '_');
  }
  if (label.empty()) label = "t";
  return label;
}

}  // namespace

ServiceFleet::ServiceFleet(const FleetConfig& config) : config_(config) {
  STHIST_CHECK(config_.refiners > 0);
  STHIST_CHECK(config_.queue_capacity > 0);
  STHIST_CHECK(config_.publish_batch > 0);

  // Same registry fallback as HistogramService: stats() reads the metric
  // cells back, so the fleet must always have an enabled registry.
  obs::MetricsRegistry* candidate =
      config_.metrics != nullptr ? config_.metrics : obs::GlobalMetrics();
  if (candidate->enabled()) {
    registry_ = candidate;
  } else {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  tenants_ = registry_->gauge("serve.fleet.tenants");
  tenants_added_ = registry_->counter("serve.fleet.tenants_added");
  tenants_removed_ = registry_->counter("serve.fleet.tenants_removed");
  reads_ = registry_->counter("serve.fleet.reads");
  accepted_ = registry_->counter("serve.fleet.feedback_accepted");
  dropped_full_ = registry_->counter("serve.fleet.feedback_dropped_full");
  dropped_stopped_ =
      registry_->counter("serve.fleet.feedback_dropped_stopped");
  applied_ = registry_->counter("serve.fleet.feedback_applied");
  publishes_ = registry_->counter("serve.fleet.publishes");
  shard_runs_ = registry_->counter("serve.fleet.shard_runs");
  queue_depth_ = registry_->gauge("serve.fleet.queue_depth");
  publish_seconds_ = registry_->latency("serve.fleet.publish_seconds");
  snapshot_saves_ = registry_->counter("serve.snapshot.saves");
  snapshot_bytes_ = registry_->gauge("serve.snapshot.bytes");
  snapshot_save_seconds_ = registry_->latency("serve.snapshot.save_seconds");

  pool_ = std::make_unique<ThreadPool>(config_.refiners, registry_);
}

ServiceFleet::~ServiceFleet() {
  Stop();
  // Join the workers before any member they touch is destroyed.
  pool_.reset();
}

Status ServiceFleet::AddTenant(std::string_view key,
                               std::unique_ptr<Histogram> initial,
                               const CardinalityOracle& oracle) {
  if (key.empty()) {
    return Status::InvalidArgument("tenant key must be non-empty");
  }
  if (initial == nullptr) {
    return Status::InvalidArgument("tenant histogram must be non-null");
  }
  std::shared_ptr<const Histogram> first = initial->Snapshot();
  if (first == nullptr) {
    return StatusF(StatusCode::kInvalidArgument,
                   "tenant '%.*s' needs a histogram supporting Clone()",
                   static_cast<int>(key.size()), key.data());
  }

  auto shard = std::make_shared<Shard>(std::string(key), TenantId(key),
                                       config_.queue_capacity);
  shard->working = std::move(initial);
  shard->snapshot.store(std::move(first));
  shard->oracle = &oracle;

  std::unique_lock<std::shared_mutex> lock(map_mutex_);
  if (stopped_) {
    return Status::Unavailable("fleet is stopped; no tenants can be added");
  }
  auto [it, inserted] = shards_.emplace(shard->key, shard);
  if (!inserted) {
    return StatusF(StatusCode::kInvalidArgument,
                   "tenant '%s' already exists", shard->key.c_str());
  }
  // Per-shard cells, capped: the first top_k tenants ever added get their
  // own label, everyone after shares "other" (DESIGN.md §13 — the name set
  // must stay bounded however many tenants come and go).
  const std::string label = labels_assigned_ < config_.top_k_shard_labels
                                ? SanitizeLabel(shard->key)
                                : std::string("other");
  if (labels_assigned_ < config_.top_k_shard_labels) ++labels_assigned_;
  shard->label_reads =
      registry_->counter("serve.fleet_shard_" + label + ".reads");
  shard->label_applied =
      registry_->counter("serve.fleet_shard_" + label + ".applied");
  tenants_.Set(static_cast<double>(shards_.size()));
  tenants_added_.Inc();
  return Status::Ok();
}

Status ServiceFleet::RemoveTenant(std::string_view key) {
  std::shared_ptr<Shard> shard;
  {
    std::unique_lock<std::shared_mutex> lock(map_mutex_);
    auto it = shards_.find(std::string(key));
    if (it == shards_.end()) {
      return StatusF(StatusCode::kNotFound, "unknown tenant '%.*s'",
                     static_cast<int>(key.size()), key.data());
    }
    shard = std::move(it->second);
    shards_.erase(it);
    tenants_.Set(static_cast<double>(shards_.size()));
    tenants_removed_.Inc();
  }
  // Drain what the queue still holds (counters must converge to
  // applied == accepted) without publishing further snapshots. Readers that
  // already hold the snapshot keep it; the shard itself dies with the last
  // reference.
  shard->removed.store(true, std::memory_order_release);
  shard->queue.Close();
  ScheduleShard(std::move(shard));
  return Status::Ok();
}

bool ServiceFleet::HasTenant(std::string_view key) const {
  return FindShard(key) != nullptr;
}

std::vector<std::string> ServiceFleet::TenantKeys() const {
  std::vector<std::string> keys;
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    keys.reserve(shards_.size());
    for (const auto& [key, shard] : shards_) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

uint64_t ServiceFleet::TenantId(std::string_view key) const {
  return DeriveSeed(config_.seed, HashKey(key));
}

std::shared_ptr<ServiceFleet::Shard> ServiceFleet::FindShard(
    std::string_view key) const {
  std::shared_lock<std::shared_mutex> lock(map_mutex_);
  auto it = shards_.find(std::string(key));
  return it == shards_.end() ? nullptr : it->second;
}

StatusOr<double> ServiceFleet::Estimate(std::string_view key,
                                        const Box& query) const {
  std::shared_ptr<Shard> shard = FindShard(key);
  if (shard == nullptr) {
    return StatusF(StatusCode::kNotFound, "unknown tenant '%.*s'",
                   static_cast<int>(key.size()), key.data());
  }
  reads_.Inc();
  shard->label_reads.Inc();
  return shard->snapshot.load()->Estimate(query);
}

StatusOr<std::vector<double>> ServiceFleet::EstimateBatch(
    std::string_view key, std::span<const Box> queries) const {
  std::shared_ptr<Shard> shard = FindShard(key);
  if (shard == nullptr) {
    return StatusF(StatusCode::kNotFound, "unknown tenant '%.*s'",
                   static_cast<int>(key.size()), key.data());
  }
  reads_.Inc(queries.size());
  shard->label_reads.Inc(queries.size());
  // One load: the whole batch is answered by a single snapshot epoch.
  std::shared_ptr<const Histogram> snap = shard->snapshot.load();
  return snap->EstimateBatch(queries, config_.estimate_threads);
}

std::shared_ptr<const Histogram> ServiceFleet::Snapshot(
    std::string_view key) const {
  std::shared_ptr<Shard> shard = FindShard(key);
  return shard == nullptr ? nullptr : shard->snapshot.load();
}

StatusOr<FleetFeedbackOutcome> ServiceFleet::SubmitFeedback(
    std::string_view key, const Box& query) {
  std::shared_ptr<Shard> shard = FindShard(key);
  if (shard == nullptr) {
    return StatusF(StatusCode::kNotFound, "unknown tenant '%.*s'",
                   static_cast<int>(key.size()), key.data());
  }
  switch (shard->queue.TryPush(query)) {
    case PushResult::kAccepted:
      shard->accepted.fetch_add(1, std::memory_order_relaxed);
      accepted_.Inc();
      queue_depth_.Add(1.0);
      ScheduleShard(std::move(shard));
      return FleetFeedbackOutcome::kAccepted;
    case PushResult::kFull:
      dropped_full_.Inc();
      return FleetFeedbackOutcome::kQueueFull;
    case PushResult::kClosed:
      break;
  }
  dropped_stopped_.Inc();
  return FleetFeedbackOutcome::kStopped;
}

void ServiceFleet::ScheduleShard(std::shared_ptr<Shard> shard) {
  // The claiming loop: exactly one thread wins the kIdle→kQueued transition
  // and enqueues the shard; a running shard is marked dirty instead, and the
  // running worker re-queues it on release. Every path either submits one
  // task, records the need for one, or observes that one is already pending
  // — so at most one pool task per shard exists at any moment.
  uint32_t state = shard->in_flight.load(std::memory_order_relaxed);
  for (;;) {
    switch (state) {
      case kIdle:
        if (shard->in_flight.compare_exchange_weak(
                state, kQueued, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
          pool_->Submit(
              [this, shard = std::move(shard)] { RunShard(shard); });
          return;
        }
        break;  // `state` was reloaded; re-dispatch.
      case kQueued:
      case kRunningDirty:
        return;
      case kRunning:
        if (shard->in_flight.compare_exchange_weak(
                state, kRunningDirty, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
          return;
        }
        break;
      default:
        STHIST_CHECK_MSG(false, "corrupt shard claim state");
    }
  }
}

void ServiceFleet::RunShard(const std::shared_ptr<Shard>& shard) {
  // kQueued→kRunning: this worker now owns the working histogram. Cross-run
  // visibility of refinements comes from the claim chain — the previous
  // run's release of the claim is acquired by whichever ScheduleShard CAS
  // won kIdle→kQueued, and the pool queue orders that submit before this
  // execution.
  shard->in_flight.store(kRunning, std::memory_order_release);
  shard_runs_.Inc();

  // Non-blocking drain of one batch, strictly FIFO: a pool worker never
  // parks on an empty shard queue (it would starve other shards), and the
  // batch bound keeps one backlogged tenant from monopolizing the worker.
  std::vector<Box> batch;
  const size_t n =
      shard->queue.PopBatchFor(&batch, config_.publish_batch,
                               std::chrono::seconds(0));
  if (n > 0) {
    const bool removed = shard->removed.load(std::memory_order_acquire);
    for (const Box& query : batch) {
      shard->working->Refine(query, *shard->oracle);
    }
    shard->applied.fetch_add(n, std::memory_order_relaxed);
    applied_.Inc(n);
    shard->label_applied.Inc(n);
    queue_depth_.Add(-static_cast<double>(n));
    if (!removed) {
      PublishShard(shard.get());
    }
    // Advance the drain horizon even when removed: a removed tenant's
    // feedback is drained, not published, and Drain must not hang on it.
    shard->published.store(shard->applied.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  }

  // Release the claim. A failed kRunning→kIdle CAS means a producer marked
  // the shard dirty mid-run: go back to kQueued and resubmit ourselves.
  // After a clean release, anything still queued (items beyond the batch
  // bound, or a push that raced the drain) gets a fresh claim — safe to call
  // unconditionally because ScheduleShard itself CASes.
  uint32_t expected = kRunning;
  if (!shard->in_flight.compare_exchange_strong(expected, kIdle,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
    STHIST_CHECK(expected == kRunningDirty);
    shard->in_flight.store(kQueued, std::memory_order_release);
    pool_->Submit([this, shard] { RunShard(shard); });
  } else if (shard->queue.size() > 0) {
    ScheduleShard(shard);
  }
  NotifyDrain();
}

void ServiceFleet::PublishShard(Shard* shard) {
  const auto start = std::chrono::steady_clock::now();
  // COW snapshot: O(touched path), DESIGN.md §17.
  std::shared_ptr<const Histogram> snap = shard->working->Snapshot();
  STHIST_CHECK(snap != nullptr);
  // Timed like HistogramService::Publish: the latency of *making* the
  // publishable snapshot. The store below also releases the previous
  // epoch's snapshot, and that teardown (the COW path's stale spine copies)
  // is refiner-thread cleanup, not part of the reader-visible handoff.
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  shard->snapshot.store(std::move(snap));
  publishes_.Inc();
  publish_seconds_.Observe(seconds);
}

void ServiceFleet::NotifyDrain() {
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
  }
  drain_cv_.notify_all();
}

Status ServiceFleet::WaitForShards(
    const std::vector<std::pair<std::shared_ptr<Shard>, size_t>>& targets) {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [&targets] {
    for (const auto& [shard, horizon] : targets) {
      if (shard->published.load(std::memory_order_relaxed) < horizon) {
        return false;
      }
    }
    return true;
  });
  return Status::Ok();
}

Status ServiceFleet::Drain() {
  // The horizon is per shard: everything each shard had accepted when Drain
  // was called. Every accepted item is eventually applied by some pool run
  // (Stop flushes closed queues too), and every run ends in a notify — so
  // the wait always terminates. Removed tenants advance their horizon
  // without publishing.
  std::vector<std::pair<std::shared_ptr<Shard>, size_t>> targets;
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    targets.reserve(shards_.size());
    for (const auto& [key, shard] : shards_) {
      targets.emplace_back(shard,
                           shard->accepted.load(std::memory_order_relaxed));
    }
  }
  return WaitForShards(targets);
}

Status ServiceFleet::DrainTenant(std::string_view key) {
  std::shared_ptr<Shard> shard = FindShard(key);
  if (shard == nullptr) {
    return StatusF(StatusCode::kNotFound, "unknown tenant '%.*s'",
                   static_cast<int>(key.size()), key.data());
  }
  const size_t horizon = shard->accepted.load(std::memory_order_relaxed);
  return WaitForShards({{std::move(shard), horizon}});
}

void ServiceFleet::Stop() {
  std::vector<std::shared_ptr<Shard>> all;
  {
    std::unique_lock<std::shared_mutex> lock(map_mutex_);
    if (stopped_) return;
    stopped_ = true;
    all.reserve(shards_.size());
    for (const auto& [key, shard] : shards_) all.push_back(shard);
  }
  // Close every queue (new feedback now sheds as kStopped), then flush what
  // they hold through the pool. A run that leaves a queue non-empty
  // reschedules itself, and reschedules happen inside running tasks, so
  // Wait() cannot return before every queue is drained.
  for (const std::shared_ptr<Shard>& shard : all) {
    shard->queue.Close();
    ScheduleShard(shard);
  }
  pool_->Wait();
  NotifyDrain();
}

Status ServiceFleet::SaveSnapshot(const std::string& path) const {
  const auto start = std::chrono::steady_clock::now();
  snapshot_io::FleetSnapshot out;
  out.seed = config_.seed;
  // Grab the snapshot handles under the shared lock (pointer reads only),
  // then serialize lock-free — each handle is a frozen epoch, so readers and
  // refiners keep running while the encode does its O(total buckets) work.
  std::vector<std::pair<std::string, std::shared_ptr<const Histogram>>> snaps;
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    snaps.reserve(shards_.size());
    for (const auto& [key, shard] : shards_) {
      snaps.emplace_back(key, shard->snapshot.load());
    }
  }
  std::sort(snaps.begin(), snaps.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.tenants.reserve(snaps.size());
  for (auto& [key, snap] : snaps) {
    snapshot_io::FleetTenant tenant;
    tenant.histogram = snap->SerializeBinary();
    if (tenant.histogram.empty()) {
      return StatusF(StatusCode::kInvalidArgument,
                     "tenant '%s' does not support binary snapshots "
                     "(SerializeBinary returned empty)",
                     key.c_str());
    }
    tenant.estimator = EstimatorNameForBlob(tenant.histogram);
    tenant.key = std::move(key);
    out.tenants.push_back(std::move(tenant));
  }
  const std::string bytes = snapshot_io::EncodeFleetSnapshot(out);
  STHIST_RETURN_IF_ERROR(snapshot_io::WriteFileAtomic(path, bytes));
  snapshot_saves_.Inc();
  snapshot_bytes_.Set(static_cast<double>(bytes.size()));
  snapshot_save_seconds_.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return Status::Ok();
}

FleetStats ServiceFleet::stats() const {
  FleetStats s;
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    s.tenants = shards_.size();
  }
  s.tenants_added = tenants_added_.value();
  s.tenants_removed = tenants_removed_.value();
  s.reads_served = reads_.value();
  s.feedback_accepted = accepted_.value();
  s.feedback_dropped_full = dropped_full_.value();
  s.feedback_dropped_stopped = dropped_stopped_.value();
  s.feedback_applied = applied_.value();
  s.publishes = publishes_.value();
  s.shard_runs = shard_runs_.value();
  const double depth = queue_depth_.value();
  s.queue_depth = depth > 0.0 ? static_cast<size_t>(depth) : 0;
  return s;
}

}  // namespace sthist
