#include "serve/histogram_service.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "core/check.h"
#include "histogram/registry.h"
#include "histogram/stholes.h"
#include "histogram/trivial.h"
#include "serve/snapshot_io.h"

namespace sthist {

namespace {

/// How long the refiner waits for feedback per poll while a background
/// rebuild is in flight: short enough that a finished rebuild swaps in
/// promptly on an idle queue, long enough that polling costs nothing.
constexpr auto kRebuildPoll = std::chrono::milliseconds(2);

/// Clamps an oracle-reported domain total into something a root bucket can
/// hold (drift or an injected fault can hand back NaN/negative).
double ClampTotal(double total) {
  if (!std::isfinite(total) || total < 0.0) return 0.0;
  return total;
}

}  // namespace

HistogramService::HistogramService(std::unique_ptr<Histogram> initial,
                                   const CardinalityOracle& oracle,
                                   const ServiceConfig& config)
    : config_(config),
      oracle_(oracle),
      working_(std::move(initial)),
      queue_(config.queue_capacity) {
  STHIST_CHECK(working_ != nullptr);
  STHIST_CHECK(config_.publish_batch > 0);

  // stats() reads the metric cells back, so the service must always have an
  // enabled registry: the configured one, else the process-wide default,
  // else (when both are disabled null objects) a private one — never
  // silently losing its stats.
  obs::MetricsRegistry* candidate =
      config_.metrics != nullptr ? config_.metrics : obs::GlobalMetrics();
  if (candidate->enabled()) {
    registry_ = candidate;
  } else {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  reads_ = registry_->counter("serve.service.reads");
  accepted_ = registry_->counter("serve.service.feedback_accepted");
  dropped_full_ = registry_->counter("serve.service.feedback_dropped_full");
  dropped_stopped_ =
      registry_->counter("serve.service.feedback_dropped_stopped");
  applied_ = registry_->counter("serve.service.feedback_applied");
  publishes_ = registry_->counter("serve.service.publishes");
  queue_depth_ = registry_->gauge("serve.service.queue_depth");
  staleness_ = registry_->gauge("serve.service.staleness");
  publish_seconds_ = registry_->latency("serve.service.publish_seconds");
  snapshot_saves_ = registry_->counter("serve.snapshot.saves");
  snapshot_bytes_ = registry_->gauge("serve.snapshot.bytes");
  snapshot_save_seconds_ = registry_->latency("serve.snapshot.save_seconds");

  if (config_.faults.rate > 0.0) {
    refiner_faults_ =
        std::make_unique<FaultyOracle>(oracle_, config_.faults);
    refine_oracle_ = refiner_faults_.get();
  } else {
    refine_oracle_ = &oracle_;
  }

  if (config_.reinit.enabled) {
    const ReinitConfig& reinit = config_.reinit;
    STHIST_CHECK_MSG(reinit.domain.dim() > 0,
                     "ReinitConfig::domain is required when re-init is on");
    STHIST_CHECK(Validate(reinit.detector).ok());
    STHIST_CHECK(Validate(reinit.reservoir).ok());
    detector_ = std::make_unique<StagnationDetector>(reinit.detector);
    reservoir_ = std::make_unique<FeedbackReservoir>(reinit.domain.dim(),
                                                     reinit.reservoir);
    // The trivial control always reads the clean oracle: it is the
    // normalization baseline, not part of the faulted feedback path.
    trivial_ = std::make_unique<TrivialHistogram>(
        reinit.domain, ClampTotal(oracle_.Count(reinit.domain)));
    replay_.reserve(
        std::min<size_t>(reinit.replay_capacity, config_.queue_capacity));

    reinit_triggers_ = registry_->counter("serve.reinit.triggers");
    reinit_swaps_completed_ =
        registry_->counter("serve.reinit.swaps_completed");
    reinit_swaps_aborted_ = registry_->counter("serve.reinit.swaps_aborted");
    reinit_replayed_ = registry_->counter("serve.reinit.replayed_feedback");
    reservoir_size_ = registry_->gauge("serve.reinit.reservoir_size");
    rolling_nae_ = registry_->gauge("serve.reinit.rolling_nae");
    rebuild_seconds_ = registry_->latency("serve.reinit.rebuild_seconds");
  }

  std::shared_ptr<const Histogram> first = working_->Snapshot();
  STHIST_CHECK_MSG(first != nullptr,
                   "HistogramService needs a histogram supporting Clone()");
  snapshot_.store(std::move(first));
  refiner_ = std::thread([this] { RefinerLoop(); });
}

HistogramService::~HistogramService() { Stop(); }

double HistogramService::Estimate(const Box& query) const {
  reads_.Inc();
  return snapshot_.load()->Estimate(query);
}

std::vector<double> HistogramService::EstimateBatch(
    std::span<const Box> queries) const {
  reads_.Inc(queries.size());
  // One load: the whole batch is answered by a single epoch even if a
  // publish lands while it runs.
  std::shared_ptr<const Histogram> snap = snapshot_.load();
  return snap->EstimateBatch(queries, config_.estimate_threads);
}

std::shared_ptr<const Histogram> HistogramService::snapshot() const {
  return snapshot_.load();
}

FeedbackOutcome HistogramService::SubmitFeedback(const Box& query,
                                                 double served_estimate) {
  // The detector grades served estimates; a caller that did not capture one
  // gets the current snapshot sampled here, at submit time — afterwards the
  // refiner's working copy has already learned this very query and would
  // grade itself on the answer sheet.
  if (detector_ != nullptr && !std::isfinite(served_estimate)) {
    served_estimate = snapshot_.load()->Estimate(query);
  }
  switch (queue_.TryPush(Feedback{query, served_estimate})) {
    case PushResult::kAccepted:
      accepted_.Inc();
      return FeedbackOutcome::kAccepted;
    case PushResult::kFull:
      dropped_full_.Inc();
      return FeedbackOutcome::kQueueFull;
    case PushResult::kClosed:
      break;
  }
  dropped_stopped_.Inc();
  return FeedbackOutcome::kStopped;
}

void HistogramService::RefinerLoop() {
  std::vector<Feedback> batch;
  for (;;) {
    size_t n;
    if (rebuild_inflight_) {
      // Timed pop: keep refining the incumbent while the builder works, but
      // wake often enough to swap a finished rebuild in promptly.
      n = queue_.PopBatchFor(&batch, config_.publish_batch, kRebuildPoll);
      if (rebuild_ready_.load(std::memory_order_acquire)) {
        // Publish a landed swap right here: with an idle queue the batch
        // publish below never runs, and readers would otherwise keep the
        // pre-swap snapshot until the next feedback arrives.
        if (CompleteSwap() && n == 0) Publish();
      }
      if (n == 0) {
        if (queue_.closed() && queue_.size() == 0) break;
        continue;
      }
    } else {
      n = queue_.PopBatch(&batch, config_.publish_batch);
      if (n == 0) break;
    }
    for (const Feedback& feedback : batch) ApplyFeedback(feedback);
    // Publish once per applied batch: under load that is one snapshot per
    // publish_batch items, when idle one per item — the queue being the
    // batching mechanism means freshness degrades only when throughput
    // actually demands it.
    Publish();
  }
  // Shutdown with a rebuild in flight: finish it rather than leak the
  // builder — the final snapshot is then the rebuilt histogram (or the
  // incumbent if the rebuild failed), same as it would have been one poll
  // later.
  if (rebuild_inflight_) {
    CompleteSwap();
    Publish();
  }
  // Wake any Drain stuck on a horizon this refiner will never publish.
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    refiner_done_ = true;
  }
  publish_cv_.notify_all();
}

void HistogramService::ApplyFeedback(const Feedback& feedback) {
  if (detector_ != nullptr) {
    // The detector grades the estimate that was SERVED for this query
    // (captured at submit time) against what executing it observed. The
    // actual flows through the (possibly faulted) refiner oracle — the
    // detector sees the same feedback the histogram does; the trivial
    // control is deterministic and oracle-free.
    const double actual = refine_oracle_->Count(feedback.query);
    const double trivial_estimate = trivial_->Estimate(feedback.query);
    const bool fired = detector_->Observe(feedback.served_estimate,
                                          trivial_estimate, actual);
    reservoir_->Add(feedback.query, actual);
    reservoir_size_.Set(static_cast<double>(reservoir_->size()));
    const double nae = detector_->RollingNae();
    if (std::isfinite(nae)) rolling_nae_.Set(nae);
    if (fired && !rebuild_inflight_) StartRebuild();

    if (config_.reinit.trivial_refresh > 0 &&
        ++observed_since_refresh_ >= config_.reinit.trivial_refresh) {
      observed_since_refresh_ = 0;
      trivial_ = std::make_unique<TrivialHistogram>(
          config_.reinit.domain,
          ClampTotal(oracle_.Count(config_.reinit.domain)));
    }
  }
  working_->Refine(feedback.query, *refine_oracle_);
  applied_.Inc();
  if (rebuild_inflight_ && replay_.size() < config_.reinit.replay_capacity) {
    replay_.push_back(feedback);
  }
}

void HistogramService::StartRebuild() {
  STHIST_CHECK(!rebuild_inflight_);
  reinit_triggers_.Inc();
  // Materialize the sample on the refiner thread — the builder must never
  // touch the live reservoir (which keeps absorbing feedback mid-rebuild).
  rebuild_sample_ = reservoir_->ToDataset();
  rebuilt_.reset();
  rebuild_ready_.store(false, std::memory_order_release);
  replay_.clear();
  rebuild_inflight_ = true;
  if (config_.reinit.background) {
    builder_ = std::thread([this] {
      RunRebuild();
      rebuild_ready_.store(true, std::memory_order_release);
    });
  } else {
    RunRebuild();
    rebuild_ready_.store(true, std::memory_order_release);
    CompleteSwap();
  }
}

void HistogramService::RunRebuild() {
  const auto start = std::chrono::steady_clock::now();
  const ReinitConfig& reinit = config_.reinit;

  // The rebuild reads the clean oracle through its own fault injector when
  // configured — FaultyOracle is stateful, so the builder thread must not
  // share the refiner's instance.
  std::unique_ptr<FaultyOracle> faults;
  const CardinalityOracle* oracle = &oracle_;
  if (reinit.rebuild_faults.rate > 0.0) {
    faults = std::make_unique<FaultyOracle>(oracle_, reinit.rebuild_faults);
    oracle = faults.get();
  }

  // A corrupted domain total (non-finite or negative — exactly what fault
  // injection produces) fails the rebuild outright: every bucket frequency
  // would inherit the garbage, so degrading to the incumbent is strictly
  // better than clamping and serving a zero-mass histogram.
  const double total = oracle->Count(reinit.domain);
  if (!std::isfinite(total) || total < 0.0) {
    rebuilt_.reset();
    rebuild_seconds_.Observe(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
    return;
  }
  std::unique_ptr<Histogram> fresh;
  if (reinit.rebuild_override) {
    fresh = reinit.rebuild_override(rebuild_sample_, total);
  } else if (rebuild_sample_.size() > 0) {
    std::vector<SubspaceCluster> clusters =
        RunMineClus(rebuild_sample_, reinit.domain, reinit.mineclus);
    STHolesConfig hist_config;
    hist_config.max_buckets = reinit.max_buckets;
    hist_config.metrics = registry_;
    auto stholes =
        std::make_unique<STHoles>(reinit.domain, total, hist_config);
    InitializeHistogram(clusters, reinit.domain, *oracle, reinit.initializer,
                        stholes.get());
    fresh = std::move(stholes);
  }

  // Validation gate: never swap in a histogram that cannot answer sanely —
  // a faulted rebuild degrades to the incumbent instead of serving a
  // half-built snapshot.
  if (fresh != nullptr) {
    const double probe = fresh->Estimate(reinit.domain);
    if (fresh->bucket_count() < 1 || !std::isfinite(probe) || probe < 0.0 ||
        fresh->Clone() == nullptr) {
      fresh.reset();
    }
  }
  rebuilt_ = std::move(fresh);
  rebuild_seconds_.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

bool HistogramService::CompleteSwap() {
  if (builder_.joinable()) builder_.join();
  rebuild_inflight_ = false;
  rebuild_ready_.store(false, std::memory_order_release);
  rebuild_sample_ = Dataset(rebuild_sample_.dim());
  if (rebuilt_ == nullptr) {
    // Rebuild failed (or validation rejected it): the incumbent keeps
    // serving, the detector's cooldown/backstop decides when to try again.
    reinit_swaps_aborted_.Inc();
    replay_.clear();
    return false;
  }
  // Replay the rebuild window so the swap does not forget the feedback that
  // arrived while the builder worked, then make the rebuilt histogram the
  // working copy. The next Publish makes it visible to readers.
  for (const Feedback& feedback : replay_) {
    rebuilt_->Refine(feedback.query, *refine_oracle_);
  }
  reinit_replayed_.Inc(replay_.size());
  replay_.clear();
  working_ = std::move(rebuilt_);
  detector_->NoteSwap();
  reinit_swaps_completed_.Inc();
  return true;
}

void HistogramService::Publish() {
  auto start = std::chrono::steady_clock::now();
  // COW snapshot: O(touched path), DESIGN.md §17.
  std::shared_ptr<const Histogram> snap = working_->Snapshot();
  STHIST_CHECK(snap != nullptr);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  publish_seconds_.Observe(seconds);
  {
    // Snapshot pointer and watermark move together under the publish lock:
    // anyone who observes the watermark under this mutex (Drain's predicate,
    // SaveSnapshot's paired read) is therefore guaranteed to also observe
    // the snapshot it describes. Publishing the pointer outside the lock let
    // a post-Drain SaveSnapshot watch the watermark advance yet read the
    // previous epoch's snapshot — the §17 barrier bug.
    std::lock_guard<std::mutex> lock(publish_mutex_);
    snapshot_.store(std::move(snap));
    publishes_.Inc();
    const size_t applied_now = applied_.value();
    published_feedback_.store(applied_now, std::memory_order_relaxed);
    const size_t accepted_now = accepted_.value();
    staleness_.Set(static_cast<double>(
        accepted_now > applied_now ? accepted_now - applied_now : 0));
    queue_depth_.Set(static_cast<double>(queue_.size()));
    last_publish_seconds_ = seconds;
    if (seconds > max_publish_seconds_) max_publish_seconds_ = seconds;
  }
  publish_cv_.notify_all();
}

Status HistogramService::SaveSnapshot(const std::string& path) const {
  const auto start = std::chrono::steady_clock::now();
  snapshot_io::ServiceSnapshot out;
  std::shared_ptr<const Histogram> snap;
  {
    // Paired read: this watermark describes exactly this snapshot (see the
    // publish barrier above). Only the two pointer-sized reads happen under
    // the lock; serialization runs on the caller's thread afterwards.
    std::lock_guard<std::mutex> lock(publish_mutex_);
    snap = snapshot_.load();
    out.applied_feedback = config_.restored_feedback +
                           published_feedback_.load(std::memory_order_relaxed);
  }
  out.histogram = snap->SerializeBinary();
  if (out.histogram.empty()) {
    return Status::InvalidArgument(
        "served histogram does not support binary snapshots "
        "(SerializeBinary returned empty)");
  }
  out.estimator = EstimatorNameForBlob(out.histogram);
  const std::string bytes = snapshot_io::EncodeServiceSnapshot(out);
  STHIST_RETURN_IF_ERROR(snapshot_io::WriteFileAtomic(path, bytes));
  snapshot_saves_.Inc();
  snapshot_bytes_.Set(static_cast<double>(bytes.size()));
  snapshot_save_seconds_.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return Status::Ok();
}

Status HistogramService::Drain() {
  // The horizon is the feedback accepted so far; every accepted item leads
  // to a later publish (each refiner batch ends in one), whose notify
  // re-evaluates the predicate under publish_mutex_. A finished refiner also
  // wakes the wait so a stopped service reports kUnavailable instead of
  // hanging on an unreachable horizon.
  std::unique_lock<std::mutex> lock(publish_mutex_);
  publish_cv_.wait(lock, [this] {
    return refiner_done_ ||
           published_feedback_.load(std::memory_order_relaxed) >=
               accepted_.value();
  });
  if (published_feedback_.load(std::memory_order_relaxed) >=
      accepted_.value()) {
    return Status::Ok();
  }
  return Status::Unavailable(
      "service stopped before the drain horizon was published");
}

void HistogramService::Stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  queue_.Close();
  if (refiner_.joinable()) refiner_.join();
}

ServiceStats HistogramService::stats() const {
  ServiceStats s;
  s.reads_served = reads_.value();
  s.feedback_accepted = accepted_.value();
  s.feedback_dropped_full = dropped_full_.value();
  s.feedback_dropped_stopped = dropped_stopped_.value();
  s.feedback_applied = applied_.value();
  s.publishes = publishes_.value();
  s.snapshot_epoch = s.publishes;
  s.queue_depth = queue_.size();
  size_t published = published_feedback_.load(std::memory_order_relaxed);
  s.staleness =
      s.feedback_accepted > published ? s.feedback_accepted - published : 0;
  s.reinit_triggers = reinit_triggers_.value();
  s.reinit_swaps_completed = reinit_swaps_completed_.value();
  s.reinit_swaps_aborted = reinit_swaps_aborted_.value();
  s.reinit_replayed = reinit_replayed_.value();
  s.reservoir_size = static_cast<size_t>(reservoir_size_.value());
  s.rolling_nae = detector_ != nullptr ? rolling_nae_.value() : 0.0;
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    s.last_publish_seconds = last_publish_seconds_;
    s.max_publish_seconds = max_publish_seconds_;
  }
  return s;
}

}  // namespace sthist
