#include "serve/service_fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "core/bounded_queue.h"
#include "core/check.h"
#include "core/rng.h"
#include "histogram/registry.h"
#include "histogram/stholes.h"
#include "histogram/trivial.h"
#include "init/initializer.h"
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

/// Clamps an oracle-reported domain total into something a root bucket can
/// hold (drift or an injected fault can hand back NaN/negative).
double ClampTotal(double total) {
  if (!std::isfinite(total) || total < 0.0) return 0.0;
  return total;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Claim states of one shard, the `in_flight` discipline. Only the thread
/// that wins kIdle→kQueued may enqueue the shard; only the pool worker that
/// performs kQueued→kRunning may refine it; a producer that finds it
/// kRunning marks kRunningDirty and the running worker re-queues on release
/// instead of going idle.
enum InFlight : uint32_t {
  kIdle = 0,
  kQueued = 1,
  kRunning = 2,
  kRunningDirty = 3,
};

/// A per-tenant count that also feeds the fleet-wide registry cell of the
/// same meaning (serve.reinit.* aggregates over every re-init tenant).
struct TenantCounter {
  void Inc(size_t n = 1) {
    value.fetch_add(n, std::memory_order_relaxed);
    cell.Inc(n);
  }
  std::atomic<size_t> value{0};
  obs::Counter cell;
};

}  // namespace

/// One queued feedback item: the executed query plus the estimate that was
/// served for it. The stagnation detector grades the *served* estimate — the
/// number production actually acted on, staleness and all — not the refiner's
/// one-step-ahead view, which adapts far too quickly to reveal that readers
/// are being fed garbage under drift.
struct ServiceFleet::Feedback {
  Box query;
  double served_estimate = 0.0;
};

/// A re-init tenant's drift loop (DESIGN.md §14). Everything but the atomics
/// belongs to the pool worker holding the shard's claim, except `sample` and
/// `rebuilt`, which StartRebuild hands to the builder thread until it sets
/// `ready`.
struct ServiceFleet::Reinit {
  Reinit(const ReinitConfig& reinit, const CardinalityOracle& oracle,
         size_t queue_capacity, obs::MetricsRegistry* registry)
      : config(reinit),
        detector(reinit.detector),
        reservoir(reinit.domain.dim(), reinit.reservoir),
        // The trivial control always reads the clean oracle: it is the
        // normalization baseline, not part of the faulted feedback path.
        trivial(std::make_unique<TrivialHistogram>(
            reinit.domain, ClampTotal(oracle.Count(reinit.domain)))) {
    replay.reserve(std::min(kReplayCapacity, queue_capacity));
    triggers.cell = registry->counter("serve.reinit.triggers");
    swaps_completed.cell = registry->counter("serve.reinit.swaps_completed");
    swaps_aborted.cell = registry->counter("serve.reinit.swaps_aborted");
    replayed.cell = registry->counter("serve.reinit.replayed_feedback");
    reservoir_size_gauge = registry->gauge("serve.reinit.reservoir_size");
    rolling_nae_gauge = registry->gauge("serve.reinit.rolling_nae");
    rebuild_seconds = registry->latency("serve.reinit.rebuild_seconds");
  }

  const ReinitConfig config;
  StagnationDetector detector;
  FeedbackReservoir reservoir;
  std::unique_ptr<TrivialHistogram> trivial;
  size_t observed_since_refresh = 0;
  std::vector<Feedback> replay;  // Rebuild-window feedback, FIFO.
  bool inflight = false;

  std::thread builder;
  std::atomic<bool> ready{false};       // Builder finished; swap pending.
  Dataset sample{1};                    // Handed to the builder.
  std::unique_ptr<Histogram> rebuilt;   // Builder's result (null = failed).

  TenantCounter triggers;
  TenantCounter swaps_completed;
  TenantCounter swaps_aborted;
  TenantCounter replayed;
  std::atomic<size_t> reservoir_size{0};
  std::atomic<double> rolling_nae{std::numeric_limits<double>::quiet_NaN()};
  obs::Gauge reservoir_size_gauge;
  obs::Gauge rolling_nae_gauge;
  obs::LatencyHistogram rebuild_seconds;
};

/// One tenant's serving cell.
struct ServiceFleet::Shard {
  Shard(std::string key, size_t queue_capacity)
      : key(std::move(key)), queue(queue_capacity) {}

  const std::string key;

  /// Refiner-side working copy; touched only by the worker holding the
  /// kRunning claim.
  std::unique_ptr<Histogram> working;
  std::atomic<std::shared_ptr<const Histogram>> snapshot;

  /// The tenant's clean oracle (trivial control, rebuilds) and the one
  /// refinement consumes: the shard's own FaultyOracle when
  /// FleetConfig::faults is on (stateful, so claim holder only), else the
  /// clean one.
  const CardinalityOracle* oracle = nullptr;
  std::unique_ptr<FaultyOracle> faults;
  const CardinalityOracle* refine_oracle = nullptr;

  BoundedQueue<Feedback> queue;
  std::atomic<uint32_t> in_flight{kIdle};

  /// Set by RemoveTenant: remaining feedback is drained (counters stay
  /// consistent) but no further snapshot is published.
  std::atomic<bool> removed{false};

  /// Per-shard horizon counters for Drain (fleet metric cells are
  /// aggregates and cannot answer per-shard questions).
  std::atomic<size_t> accepted{0};
  std::atomic<size_t> applied{0};
  std::atomic<size_t> published{0};

  /// Pairs `snapshot` with `published`: PublishShard moves both under it and
  /// SaveSnapshot reads both under it, so a saved watermark always describes
  /// exactly the histogram saved (the DESIGN.md §17 barrier).
  std::mutex publish_mutex;
  size_t restored_feedback = 0;

  /// The drift loop; null for tenants without re-init.
  std::unique_ptr<Reinit> reinit;
};

ServiceFleet::ServiceFleet(const FleetConfig& config) : config_(config) {
  STHIST_CHECK(config_.refiners > 0);
  STHIST_CHECK(config_.queue_capacity > 0);
  STHIST_CHECK(config_.publish_batch > 0);

  // stats() reads the metric cells back, so the fleet must always have an
  // enabled registry: the configured one, else the process-wide default,
  // else (when both are disabled null objects) a private one.
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
                               const CardinalityOracle& oracle,
                               const TenantOptions& options) {
  if (key.empty()) {
    return Status::InvalidArgument("tenant key must be non-empty");
  }
  if (initial == nullptr) {
    return Status::InvalidArgument("tenant histogram must be non-null");
  }
  const ReinitConfig& reinit = options.reinit;
  if (reinit.enabled) {
    Status valid =
        reinit.domain.dim() == 0
            ? Status::InvalidArgument(
                  "ReinitConfig::domain is required when re-init is on")
            : Validate(reinit.detector);
    if (valid.ok()) valid = Validate(reinit.reservoir);
    if (valid.ok()) valid = Validate(reinit.mineclus);
    if (!valid.ok()) {
      return StatusF(StatusCode::kInvalidArgument, "tenant '%.*s': %s",
                     static_cast<int>(key.size()), key.data(),
                     valid.message().c_str());
    }
  }
  std::shared_ptr<const Histogram> first = initial->Snapshot();
  if (first == nullptr) {
    return StatusF(StatusCode::kInvalidArgument,
                   "tenant '%.*s' needs a histogram supporting Clone()",
                   static_cast<int>(key.size()), key.data());
  }

  auto shard =
      std::make_shared<Shard>(std::string(key), config_.queue_capacity);
  shard->working = std::move(initial);
  shard->snapshot.store(std::move(first));
  shard->oracle = &oracle;
  shard->refine_oracle = &oracle;
  if (config_.faults.rate > 0.0) {
    shard->faults = std::make_unique<FaultyOracle>(oracle, config_.faults);
    shard->refine_oracle = shard->faults.get();
  }
  shard->restored_feedback = options.restored_feedback;
  if (reinit.enabled) {
    shard->reinit = std::make_unique<Reinit>(reinit, oracle,
                                             config_.queue_capacity, registry_);
  }

  std::unique_lock<std::shared_mutex> lock(map_mutex_);
  if (stopped_) {
    return Status::Unavailable("fleet is stopped; no tenants can be added");
  }
  auto [it, inserted] = shards_.emplace(shard->key, shard);
  if (!inserted) {
    return StatusF(StatusCode::kInvalidArgument,
                   "tenant '%s' already exists", shard->key.c_str());
  }
  tenants_.Set(static_cast<double>(shards_.size()));
  tenants_added_.Inc();
  return Status::Ok();
}

Status ServiceFleet::RemoveTenant(std::string_view key) {
  std::shared_ptr<Shard> shard;
  {
    std::unique_lock<std::shared_mutex> lock(map_mutex_);
    auto it = shards_.find(key);
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
  // reference (a builder thread in flight holds one until it is joined).
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
  auto it = shards_.find(key);
  return it == shards_.end() ? nullptr : it->second;
}

StatusOr<double> ServiceFleet::Estimate(std::string_view key,
                                        const Box& query) const {
  std::shared_ptr<const Histogram> snap = Snapshot(key);
  if (snap == nullptr) {
    return StatusF(StatusCode::kNotFound, "unknown tenant '%.*s'",
                   static_cast<int>(key.size()), key.data());
  }
  reads_.Inc();
  return snap->Estimate(query);
}

std::shared_ptr<const Histogram> ServiceFleet::Snapshot(
    std::string_view key) const {
  // The shard handle is not copied: the snapshot pointer is loaded while the
  // shared lock keeps the shard in the map, so RemoveTenant cannot free it
  // in between.
  std::shared_lock<std::shared_mutex> lock(map_mutex_);
  auto it = shards_.find(key);
  return it == shards_.end() ? nullptr : it->second->snapshot.load();
}

StatusOr<FleetFeedbackOutcome> ServiceFleet::SubmitFeedback(
    std::string_view key, const Box& query, double served_estimate) {
  std::shared_ptr<Shard> shard = FindShard(key);
  if (shard == nullptr) {
    return StatusF(StatusCode::kNotFound, "unknown tenant '%.*s'",
                   static_cast<int>(key.size()), key.data());
  }
  // The detector grades served estimates; a caller that did not capture one
  // gets the current snapshot sampled here, at submit time — afterwards the
  // working copy has already learned this very query and would grade itself
  // on the answer sheet.
  if (shard->reinit != nullptr && !std::isfinite(served_estimate)) {
    served_estimate = shard->snapshot.load()->Estimate(query);
  }
  switch (shard->queue.TryPush(Feedback{query, served_estimate})) {
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

  // A finished background rebuild schedules its shard; swap it in before the
  // batch. A swap is published even when no feedback is queued — an idle
  // tenant must not leave readers on the pre-swap snapshot.
  const bool swapped = shard->reinit != nullptr &&
                       shard->reinit->ready.load(std::memory_order_acquire) &&
                       CompleteSwap(shard.get());

  // Non-blocking drain of one batch, strictly FIFO: a pool worker never
  // parks on an empty shard queue (it would starve other shards), and the
  // batch bound keeps one backlogged tenant from monopolizing the worker.
  std::vector<Feedback> batch;
  const size_t n = shard->queue.TryPopBatch(&batch, config_.publish_batch);
  const bool removed = shard->removed.load(std::memory_order_acquire);
  for (const Feedback& feedback : batch) ApplyFeedback(shard, feedback);
  if (n > 0) {
    shard->applied.fetch_add(n, std::memory_order_relaxed);
    applied_.Inc(n);
    queue_depth_.Add(-static_cast<double>(n));
  }
  if (n > 0 || swapped) {
    if (removed) {
      // Advance the drain horizon without publishing: a removed tenant's
      // feedback is drained, not published, and Drain must not hang on it.
      shard->published.store(shard->applied.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    } else {
      PublishShard(shard.get());
    }
  }

  // Release the claim. A failed kRunning→kIdle CAS means a producer (or a
  // finished builder) marked the shard dirty mid-run: go back to kQueued and
  // resubmit ourselves. After a clean release, anything still queued (items
  // beyond the batch bound, or a push that raced the drain) gets a fresh
  // claim — safe to call unconditionally because ScheduleShard itself CASes.
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

void ServiceFleet::ApplyFeedback(const std::shared_ptr<Shard>& shard,
                                 const Feedback& feedback) {
  Reinit* reinit = shard->reinit.get();
  if (reinit != nullptr) {
    // The detector grades the estimate that was SERVED for this query
    // (captured at submit time) against what executing it observed. The
    // actual flows through the (possibly faulted) refine oracle — the
    // detector sees the same feedback the histogram does; the trivial
    // control is deterministic and oracle-free.
    const double actual = shard->refine_oracle->Count(feedback.query);
    const double trivial_estimate = reinit->trivial->Estimate(feedback.query);
    const bool fired = reinit->detector.Observe(feedback.served_estimate,
                                                trivial_estimate, actual);
    reinit->reservoir.Add(feedback.query, actual);
    reinit->reservoir_size.store(reinit->reservoir.size(),
                                 std::memory_order_relaxed);
    reinit->reservoir_size_gauge.Set(
        static_cast<double>(reinit->reservoir.size()));
    const double nae = reinit->detector.RollingNae();
    if (std::isfinite(nae)) {
      reinit->rolling_nae.store(nae, std::memory_order_relaxed);
      reinit->rolling_nae_gauge.Set(nae);
    }
    if (fired && !reinit->inflight) StartRebuild(shard);

    if (++reinit->observed_since_refresh >= kTrivialRefresh) {
      reinit->observed_since_refresh = 0;
      reinit->trivial = std::make_unique<TrivialHistogram>(
          reinit->config.domain,
          ClampTotal(shard->oracle->Count(reinit->config.domain)));
    }
  }
  shard->working->Refine(feedback.query, *shard->refine_oracle);
  if (reinit != nullptr && reinit->inflight &&
      reinit->replay.size() < kReplayCapacity) {
    reinit->replay.push_back(feedback);
  }
}

void ServiceFleet::StartRebuild(const std::shared_ptr<Shard>& shard) {
  Reinit& reinit = *shard->reinit;
  reinit.triggers.Inc();
  // Materialize the sample under the claim — the builder must never touch
  // the live reservoir (which keeps absorbing feedback mid-rebuild).
  reinit.sample = reinit.reservoir.ToDataset();
  reinit.rebuilt.reset();
  reinit.replay.clear();
  reinit.inflight = true;
  if (!reinit.config.background) {
    RunRebuild(shard.get());
    CompleteSwap(shard.get());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(rebuild_mutex_);
    ++builders_;
  }
  // The builder holds the shard alive until CompleteSwap joins it, and
  // hands the result back by scheduling the shard: the pool worker that
  // claims it next swaps the rebuilt histogram in.
  reinit.builder = std::thread([this, shard] {
    RunRebuild(shard.get());
    shard->reinit->ready.store(true, std::memory_order_release);
    ScheduleShard(shard);
  });
}

void ServiceFleet::RunRebuild(Shard* shard) const {
  const auto start = std::chrono::steady_clock::now();
  Reinit& reinit = *shard->reinit;
  const ReinitConfig& config = reinit.config;

  // The rebuild reads the clean oracle through its own fault injector when
  // configured — FaultyOracle is stateful, so a builder thread must not
  // share the refine path's instance.
  std::unique_ptr<FaultyOracle> faults;
  const CardinalityOracle* oracle = shard->oracle;
  if (config.rebuild_faults.rate > 0.0) {
    faults = std::make_unique<FaultyOracle>(*oracle, config.rebuild_faults);
    oracle = faults.get();
  }

  // A corrupted domain total (non-finite or negative — exactly what fault
  // injection produces) fails the rebuild outright: every bucket frequency
  // would inherit the garbage, so degrading to the incumbent is strictly
  // better than clamping and serving a zero-mass histogram.
  const double total = oracle->Count(config.domain);
  std::unique_ptr<Histogram> fresh;
  if (std::isfinite(total) && total >= 0.0) {
    if (config.rebuild_override) {
      fresh = config.rebuild_override(reinit.sample, total);
    } else if (reinit.sample.size() > 0) {
      std::vector<SubspaceCluster> clusters =
          RunMineClus(reinit.sample, config.domain, config.mineclus);
      STHolesConfig hist_config;
      hist_config.max_buckets = config.max_buckets;
      hist_config.metrics = registry_;
      auto stholes =
          std::make_unique<STHoles>(config.domain, total, hist_config);
      InitializeHistogram(clusters, config.domain, *oracle,
                          InitializerConfig(), stholes.get());
      fresh = std::move(stholes);
    }
  }

  // Validation gate: never swap in a histogram that cannot answer sanely —
  // a faulted rebuild degrades to the incumbent instead of serving a
  // half-built snapshot.
  if (fresh != nullptr) {
    const double probe = fresh->Estimate(config.domain);
    if (fresh->bucket_count() < 1 || !std::isfinite(probe) || probe < 0.0 ||
        fresh->Clone() == nullptr) {
      fresh.reset();
    }
  }
  reinit.rebuilt = std::move(fresh);
  reinit.rebuild_seconds.Observe(SecondsSince(start));
}

bool ServiceFleet::CompleteSwap(Shard* shard) {
  Reinit& reinit = *shard->reinit;
  if (reinit.builder.joinable()) {
    reinit.builder.join();
    {
      std::lock_guard<std::mutex> lock(rebuild_mutex_);
      --builders_;
    }
    rebuild_cv_.notify_all();
  }
  reinit.inflight = false;
  reinit.ready.store(false, std::memory_order_relaxed);
  reinit.sample = Dataset(reinit.sample.dim());
  if (reinit.rebuilt == nullptr) {
    // Rebuild failed (or validation rejected it): the incumbent keeps
    // serving, the detector's cooldown/backstop decides when to try again.
    reinit.swaps_aborted.Inc();
    reinit.replay.clear();
    return false;
  }
  // Replay the rebuild window so the swap does not forget the feedback that
  // arrived while the builder worked, then make the rebuilt histogram the
  // working copy. The caller's publish makes it visible to readers.
  for (const Feedback& feedback : reinit.replay) {
    reinit.rebuilt->Refine(feedback.query, *shard->refine_oracle);
  }
  reinit.replayed.Inc(reinit.replay.size());
  reinit.replay.clear();
  shard->working = std::move(reinit.rebuilt);
  reinit.detector.NoteSwap();
  reinit.swaps_completed.Inc();
  return true;
}

void ServiceFleet::PublishShard(Shard* shard) {
  const auto start = std::chrono::steady_clock::now();
  // COW snapshot: O(touched path), DESIGN.md §17.
  std::shared_ptr<const Histogram> snap = shard->working->Snapshot();
  STHIST_CHECK(snap != nullptr);
  // The latency of *making* the publishable snapshot. The store below also
  // releases the previous epoch's snapshot, and that teardown (the COW
  // path's stale spine copies) is refiner-thread cleanup, not part of the
  // reader-visible handoff.
  const double seconds = SecondsSince(start);
  {
    // Snapshot pointer and watermark move together: whoever reads the pair
    // under this lock (SaveSnapshot) sees a watermark that describes exactly
    // the snapshot next to it.
    std::lock_guard<std::mutex> lock(shard->publish_mutex);
    shard->snapshot.store(std::move(snap));
    shard->published.store(shard->applied.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  }
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
  // A builder thread schedules its shard when it finishes, possibly after
  // the pool went idle, and the flush above may start new rebuilds: wait out
  // every builder (removed tenants' too) between pool barriers. Once the
  // pool is idle with no builder alive, nothing can submit work again.
  for (;;) {
    pool_->Wait();
    std::unique_lock<std::mutex> lock(rebuild_mutex_);
    if (builders_ == 0) break;
    rebuild_cv_.wait(lock, [this] { return builders_ == 0; });
  }
  NotifyDrain();
}

Status ServiceFleet::SaveSnapshot(const std::string& path) const {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    shards.reserve(shards_.size());
    for (const auto& [key, shard] : shards_) shards.push_back(shard);
  }
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) { return a->key < b->key; });
  snapshot_io::FleetSnapshot out;
  out.seed = config_.seed;
  out.tenants.reserve(shards.size());
  for (const std::shared_ptr<Shard>& shard : shards) {
    snapshot_io::FleetTenant tenant;
    std::shared_ptr<const Histogram> snap;
    {
      // Paired read (see PublishShard): only the pointer and the watermark
      // are read under the lock; serialization runs lock-free afterwards on
      // the frozen epoch, so readers and refiners keep running.
      std::lock_guard<std::mutex> lock(shard->publish_mutex);
      snap = shard->snapshot.load();
      tenant.applied_feedback =
          shard->restored_feedback +
          shard->published.load(std::memory_order_relaxed);
    }
    tenant.histogram = snap->SerializeBinary();
    if (tenant.histogram.empty()) {
      return StatusF(StatusCode::kInvalidArgument,
                     "tenant '%s' does not support binary snapshots "
                     "(SerializeBinary returned empty)",
                     shard->key.c_str());
    }
    tenant.estimator = EstimatorNameForBlob(tenant.histogram);
    tenant.key = shard->key;
    out.tenants.push_back(std::move(tenant));
  }
  const std::string bytes = snapshot_io::EncodeFleetSnapshot(out);
  STHIST_RETURN_IF_ERROR(snapshot_io::WriteFileAtomic(path, bytes));
  snapshot_saves_.Inc();
  snapshot_bytes_.Set(static_cast<double>(bytes.size()));
  snapshot_save_seconds_.Observe(SecondsSince(start));
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

StatusOr<TenantStats> ServiceFleet::tenant_stats(std::string_view key) const {
  std::shared_ptr<Shard> shard = FindShard(key);
  if (shard == nullptr) {
    return StatusF(StatusCode::kNotFound, "unknown tenant '%.*s'",
                   static_cast<int>(key.size()), key.data());
  }
  TenantStats s;
  s.feedback_accepted = shard->accepted.load(std::memory_order_relaxed);
  s.feedback_applied = shard->applied.load(std::memory_order_relaxed);
  const size_t published = shard->published.load(std::memory_order_relaxed);
  s.staleness =
      s.feedback_accepted > published ? s.feedback_accepted - published : 0;
  if (const Reinit* reinit = shard->reinit.get()) {
    s.reinit_triggers = reinit->triggers.value.load(std::memory_order_relaxed);
    s.reinit_swaps_completed =
        reinit->swaps_completed.value.load(std::memory_order_relaxed);
    s.reinit_swaps_aborted =
        reinit->swaps_aborted.value.load(std::memory_order_relaxed);
    s.reinit_replayed = reinit->replayed.value.load(std::memory_order_relaxed);
    s.reservoir_size = reinit->reservoir_size.load(std::memory_order_relaxed);
    s.rolling_nae = reinit->rolling_nae.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace sthist
