#ifndef STHIST_SERVE_HISTOGRAM_SERVICE_H_
#define STHIST_SERVE_HISTOGRAM_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "clustering/mineclus.h"
#include "core/bounded_queue.h"
#include "core/box.h"
#include "core/status.h"
#include "histogram/histogram.h"
#include "init/initializer.h"
#include "obs/metrics.h"
#include "serve/stagnation.h"
#include "testing/fault_injection.h"

namespace sthist {

class TrivialHistogram;

/// Online re-initialization knobs (DESIGN.md §14). When enabled, the refiner
/// runs a StagnationDetector over its feedback stream and, on trigger,
/// re-clusters a reservoir sample of recent feedback (MineClus + the paper's
/// initializer) into a fresh histogram that hot-swaps through the normal
/// snapshot-publish path — readers never block on the rebuild.
struct ReinitConfig {
  bool enabled = false;

  /// The attribute-value domain D of the rebuilt histograms and the trivial
  /// control. Required when enabled (the service cannot infer it: the
  /// initial histogram's root box is not exposed by the Histogram API).
  Box domain;

  StagnationConfig detector;
  ReservoirConfig reservoir;

  /// Clustering and initialization of the rebuilt histogram (paper §4.1 run
  /// online over the reservoir instead of offline over the relation).
  MineClusConfig mineclus;
  InitializerConfig initializer;

  /// Bucket budget of rebuilt STHoles histograms.
  size_t max_buckets = 100;

  /// true: rebuild on a background thread while the refiner keeps applying
  /// feedback (production mode — reads and refinement never block on the
  /// rebuild). false: rebuild inline on the refiner thread, which makes the
  /// whole trigger→swap sequence deterministic for tests.
  bool background = true;

  /// Feedback applied while a rebuild is in flight is also retained (up to
  /// this many items) and replayed onto the rebuilt histogram before it
  /// swaps in, so the swap does not forget the queries of the rebuild
  /// window. Overflow is shed oldest-kept-first (the reservoir still saw
  /// every item).
  size_t replay_capacity = 4096;

  /// The trivial control's total tuple count is re-read from the oracle
  /// every this many observed feedback items (drift moves the row count;
  /// a stale control skews the NAE). 0 disables refresh.
  size_t trivial_refresh = 1024;

  /// Fault injection on the rebuild path: the oracle feeding the
  /// re-initializer is wrapped in a FaultyOracle with this config when
  /// rate > 0. The rebuild thread gets its own injector instance
  /// (FaultyOracle is stateful and not thread-safe).
  FaultConfig rebuild_faults;

  /// TEST/BENCH hook: replaces MineClus + initializer when set. Receives the
  /// reservoir sample and the domain total; returns the rebuilt histogram
  /// (nullptr = rebuild failure, exercising the abort path).
  std::function<std::unique_ptr<Histogram>(const Dataset& sample,
                                           double total_tuples)>
      rebuild_override;
};

/// Tuning knobs for HistogramService.
struct ServiceConfig {
  /// Feedback queue capacity. A full queue sheds the newest feedback
  /// (SubmitFeedback reports kQueueFull, the drop counter bumps) rather than
  /// ever stalling a query thread — estimation latency is the contract,
  /// feedback is best-effort.
  size_t queue_capacity = 4096;

  /// Maximum feedback items the refiner applies between snapshot publishes
  /// (the staleness/throughput dial). A publish also happens whenever the
  /// queue drains, so a lightly loaded service stays near-fresh and a
  /// backlogged one amortizes the publish cost over up to this many items.
  size_t publish_batch = 64;

  /// Threads for EstimateBatch on the served snapshot (0 = hardware
  /// concurrency, 1 = inline), forwarded to Histogram::EstimateBatch.
  size_t estimate_threads = 1;

  /// Feedback items already baked into the initial histogram by a previous
  /// incarnation of this service (the applied_feedback watermark of the
  /// snapshot it was restored from, 0 for a cold start). SaveSnapshot adds
  /// it to the local applied count, so a save→restore→save chain keeps the
  /// watermark cumulative over the whole feedback history.
  size_t restored_feedback = 0;

  /// Registry receiving the serve.service.* metrics (DESIGN.md §13). Null
  /// means the process-wide obs::GlobalMetrics(). The service's own counters
  /// (stats()) are these same cells, so when the chosen registry is a
  /// disabled null object the service creates a private always-enabled
  /// registry instead of silently losing its stats.
  obs::MetricsRegistry* metrics = nullptr;

  /// Fault injection on the refiner path: when rate > 0 every oracle answer
  /// the refiner consumes (detector observations and Refine feedback counts)
  /// flows through a FaultyOracle — the serving loop's fault coverage.
  /// Readers are unaffected (estimates never consult the oracle).
  FaultConfig faults;

  /// Stagnation detection + online re-initialization (DESIGN.md §14).
  ReinitConfig reinit;
};

/// What happened to one SubmitFeedback call. Both rejection outcomes mean
/// the item was shed (never blocked on); they differ in what the caller can
/// do about it: a full queue is transient backpressure, a stopped service is
/// final.
enum class FeedbackOutcome {
  kAccepted,
  kQueueFull,
  kStopped,
};

/// One queued feedback item: the executed query plus the estimate that was
/// served for it. The stagnation detector grades the *served* estimate — the
/// number production actually acted on, staleness and all — not the refiner's
/// one-step-ahead view, which adapts far too quickly to reveal that readers
/// are being fed garbage under drift.
struct Feedback {
  Box query;
  double served_estimate = 0.0;
};

/// Service counters, the serving-layer sibling of RobustnessStats: one
/// consistent-enough view of what the service has done so far. Counters are
/// sampled individually from relaxed atomics — totals can be one event apart
/// under concurrency, exact once the service is quiescent (after Drain or
/// Stop).
struct ServiceStats {
  /// Queries served from published snapshots (Estimate + EstimateBatch).
  size_t reads_served = 0;
  /// Feedback items admitted to the queue.
  size_t feedback_accepted = 0;
  /// Feedback items shed because the queue was at capacity.
  size_t feedback_dropped_full = 0;
  /// Feedback items shed because they arrived after Stop.
  size_t feedback_dropped_stopped = 0;
  /// Feedback items folded into the refiner's working copy.
  size_t feedback_applied = 0;
  /// Published snapshot generation; the initial snapshot is epoch 0 and
  /// every publish increments it.
  size_t snapshot_epoch = 0;
  /// Publishes performed (snapshot_epoch restated for readability).
  size_t publishes = 0;
  /// Feedback items currently waiting in the queue.
  size_t queue_depth = 0;
  /// Accepted feedback not yet visible to readers (queued, or applied to
  /// the working copy but not yet published). 0 means readers see every
  /// accepted item.
  size_t staleness = 0;
  /// Wall-clock cost of the most recent / the worst snapshot publish
  /// (snapshot + pointer swap), seconds.
  double last_publish_seconds = 0.0;
  double max_publish_seconds = 0.0;

  /// Stagnation triggers fired by the detector (serve.reinit.triggers).
  size_t reinit_triggers = 0;
  /// Rebuilt histograms swapped in / rebuilds abandoned (validation failure
  /// or a null rebuild), keeping the incumbent serving.
  size_t reinit_swaps_completed = 0;
  size_t reinit_swaps_aborted = 0;
  /// Rebuild-window feedback items replayed onto rebuilt histograms.
  size_t reinit_replayed = 0;
  /// Points currently held by the feedback reservoir.
  size_t reservoir_size = 0;
  /// Most recent rolling NAE the detector computed (NaN before the first
  /// windowed observation).
  double rolling_nae = 0.0;

  /// All feedback items shed, for any reason. Derived from the two split
  /// counters at read time, so dropped == dropped_full + dropped_stopped
  /// holds by construction rather than by a third independently-bumped cell.
  size_t feedback_dropped() const {
    return feedback_dropped_full + feedback_dropped_stopped;
  }
};

/// Snapshot-isolated histogram serving (DESIGN.md §11, §14).
///
/// Concurrent readers estimate against an immutable published snapshot
/// (`std::shared_ptr<const Histogram>` behind an atomic), while one refiner
/// thread drains a bounded feedback queue, applies Refine to a private
/// working copy nothing else can see, and publishes a copy-on-write
/// Snapshot() of it at the configured cadence. Readers never block on
/// refinement and refinement never blocks on readers; a reader holding a
/// snapshot keeps it alive after newer epochs supersede it.
///
/// With ReinitConfig::enabled the refiner additionally runs the drift loop
/// of DESIGN.md §14: a rolling-NAE stagnation detector over the feedback it
/// applies, a reservoir sample of that feedback, and — on trigger — a
/// MineClus + initializer rebuild of the histogram from the reservoir that
/// hot-swaps through the same snapshot-publish path. Reads never block on
/// the rebuild; a failed rebuild degrades back to the incumbent histogram.
///
/// Determinism: feedback is applied in queue (FIFO) order against the same
/// oracle a serial loop would use, so after Drain/Stop the published
/// snapshot's estimates are bitwise-identical to a single-threaded replay of
/// the accepted feedback sequence onto the initial histogram — regardless of
/// reader count, publish cadence, or scheduling (tests/serve_test.cc holds
/// this to std::bit_cast equality). With re-init enabled the same holds in
/// synchronous rebuild mode (background = false, the test configuration);
/// background rebuilds keep every guarantee except *when* the swap lands
/// relative to concurrent feedback.
///
/// The histogram must support Clone() (STHoles does); the oracle must be
/// const-thread-safe and outlive the service.
class HistogramService {
 public:
  /// Takes ownership of `initial` as the refiner's working copy, publishes
  /// its Snapshot() as snapshot epoch 0, and starts the refiner thread.
  /// Aborts if `initial` is null, does not support Clone(), or the re-init
  /// config is invalid (enabled with an empty domain or bad
  /// detector/reservoir knobs).
  HistogramService(std::unique_ptr<Histogram> initial,
                   const CardinalityOracle& oracle,
                   const ServiceConfig& config = {});

  /// Stops the service (drains and joins the refiner).
  ~HistogramService();

  HistogramService(const HistogramService&) = delete;
  HistogramService& operator=(const HistogramService&) = delete;

  /// Estimated cardinality of `query` against the current snapshot.
  /// Lock-free with respect to refinement; safe from any thread.
  double Estimate(const Box& query) const;

  /// Batch estimation against one consistent snapshot: every query in the
  /// batch is answered by the same epoch even if a publish lands mid-batch.
  std::vector<double> EstimateBatch(std::span<const Box> queries) const;

  /// The current published snapshot. Callers may hold it arbitrarily long;
  /// it stays valid (and frozen) after the service moves on or shuts down.
  std::shared_ptr<const Histogram> snapshot() const;

  /// Submits one executed query's box as refinement feedback; never blocks.
  /// kAccepted means the refiner will eventually apply it; the rejection
  /// outcomes say why it was shed instead (queue at capacity vs. service
  /// stopped).
  ///
  /// `served_estimate` is the estimate the caller served for this query —
  /// what the stagnation detector grades. Callers that did not capture one
  /// pass NaN (the default): with re-init enabled the service then samples
  /// the current snapshot itself, so the detector never silently loses its
  /// signal.
  FeedbackOutcome SubmitFeedback(
      const Box& query,
      double served_estimate = std::numeric_limits<double>::quiet_NaN());

  /// Blocks until every feedback item accepted before this call has been
  /// applied and published, i.e. staleness from the caller's viewpoint is 0.
  /// Concurrent submitters can keep the horizon moving; with quiescent
  /// producers this is a precise barrier. Returns OK once the horizon is
  /// published, or kUnavailable if the refiner exited before reaching it
  /// (cannot happen through the public API — Stop drains the queue — but the
  /// contract is explicit rather than a hang). A background rebuild in
  /// flight does not hold Drain hostage: refinement continues during the
  /// rebuild, so the horizon keeps publishing.
  Status Drain();

  /// Closes the feedback queue, drains what it holds, completes (or aborts)
  /// any in-flight rebuild, publishes the final snapshot, and joins the
  /// refiner. Estimation keeps working against the final snapshot;
  /// subsequent SubmitFeedback calls are shed. Idempotent.
  void Stop();

  /// Persists the current published snapshot and its applied-feedback
  /// watermark to `path` as a versioned binary "STHS" container (DESIGN.md
  /// §17), written atomically (temp file + rename). The pair is read under
  /// the publish lock, so the watermark always describes exactly the
  /// histogram saved — after Drain() this is the full accepted feedback
  /// history, which warm restart (RestoreService / sthist_cli serve-sim
  /// --restore) uses to resume a deterministic feedback stream bit-exactly.
  /// Fails with a Status when the histogram does not support SerializeBinary
  /// or the file cannot be written; never blocks readers or the refiner
  /// beyond the pointer read.
  Status SaveSnapshot(const std::string& path) const;

  /// Current counters (see ServiceStats for the consistency caveat). The
  /// values are read back from the serve.service.* / serve.reinit.* metric
  /// cells — ServiceStats is a typed view over the registry, not a parallel
  /// counting system.
  ServiceStats stats() const;

  /// The registry holding this service's serve.service.* metrics: the one
  /// from ServiceConfig, or the private fallback.
  const obs::MetricsRegistry& metrics_registry() const { return *registry_; }

 private:
  void RefinerLoop();
  void ApplyFeedback(const Feedback& feedback);
  void Publish();

  /// Starts (or, in synchronous mode, runs to completion) a rebuild from the
  /// current reservoir. Refiner thread only; no-op if one is in flight.
  void StartRebuild();
  /// The rebuild body: clusters the sample, initializes a fresh histogram,
  /// validates it. Runs on the builder thread (or inline when background is
  /// off); the only members it touches are the immutable config/oracle and
  /// the rebuild_* slots handed to it.
  void RunRebuild();
  /// Joins the builder, replays the rebuild-window feedback, and swaps the
  /// rebuilt histogram in as the working copy (or aborts to the incumbent).
  /// Returns whether a swap actually landed, so the caller publishes the
  /// rebuilt histogram immediately — an idle queue must not leave readers on
  /// the pre-swap snapshot indefinitely. Refiner thread only.
  bool CompleteSwap();

  const ServiceConfig config_;
  const CardinalityOracle& oracle_;

  /// Refiner-path fault injector (ServiceConfig::faults); refine_oracle_
  /// points at it when active, else at oracle_. FaultyOracle is stateful and
  /// not thread-safe — only the refiner thread consumes refine_oracle_.
  std::unique_ptr<FaultyOracle> refiner_faults_;
  const CardinalityOracle* refine_oracle_ = nullptr;

  /// Private fallback registry (see ServiceConfig::metrics); null when the
  /// config supplied a usable one.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;

  /// The refiner's private working copy; touched only by the refiner thread
  /// after construction.
  std::unique_ptr<Histogram> working_;
  std::atomic<std::shared_ptr<const Histogram>> snapshot_;

  BoundedQueue<Feedback> queue_;

  // Drift loop state (ReinitConfig::enabled); refiner thread only except
  // where noted.
  std::unique_ptr<StagnationDetector> detector_;
  std::unique_ptr<FeedbackReservoir> reservoir_;
  std::unique_ptr<TrivialHistogram> trivial_;
  size_t observed_since_refresh_ = 0;
  std::vector<Feedback> replay_;  // Rebuild-window feedback, FIFO.
  bool rebuild_inflight_ = false;
  std::thread builder_;
  std::atomic<bool> rebuild_ready_{false};
  Dataset rebuild_sample_{1};  // Handed to the builder at StartRebuild.
  std::unique_ptr<Histogram> rebuilt_;  // Builder's result (null = failed).

  // serve.service.* handles; stats() reads these same cells back.
  obs::Counter reads_;
  obs::Counter accepted_;
  obs::Counter dropped_full_;
  obs::Counter dropped_stopped_;
  obs::Counter applied_;
  obs::Counter publishes_;
  obs::Gauge queue_depth_;
  obs::Gauge staleness_;
  obs::LatencyHistogram publish_seconds_;

  // serve.snapshot.* handles (persistence, DESIGN.md §17).
  obs::Counter snapshot_saves_;
  obs::Gauge snapshot_bytes_;
  obs::LatencyHistogram snapshot_save_seconds_;

  // serve.reinit.* handles (registered only when re-init is enabled).
  obs::Counter reinit_triggers_;
  obs::Counter reinit_swaps_completed_;
  obs::Counter reinit_swaps_aborted_;
  obs::Counter reinit_replayed_;
  obs::Gauge reservoir_size_;
  obs::Gauge rolling_nae_;
  obs::LatencyHistogram rebuild_seconds_;

  std::atomic<size_t> published_feedback_{0};  // applied count at last publish.

  /// Guards the publish-latency numbers and refiner_done_, and pairs with
  /// publish_cv_ so Drain's wakeups cannot be missed.
  mutable std::mutex publish_mutex_;
  std::condition_variable publish_cv_;
  double last_publish_seconds_ = 0.0;
  double max_publish_seconds_ = 0.0;
  bool refiner_done_ = false;

  std::mutex stop_mutex_;  // Serializes Stop against itself (idempotence).
  bool stopped_ = false;
  std::thread refiner_;
};

}  // namespace sthist

#endif  // STHIST_SERVE_HISTOGRAM_SERVICE_H_
