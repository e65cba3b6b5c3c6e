#ifndef STHIST_SERVE_SERVICE_FLEET_H_
#define STHIST_SERVE_SERVICE_FLEET_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clustering/mineclus.h"
#include "core/box.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "histogram/histogram.h"
#include "obs/metrics.h"
#include "serve/stagnation.h"
#include "testing/fault_injection.h"

namespace sthist {

/// Online re-initialization of one tenant (DESIGN.md §14). When enabled, the
/// tenant's shard runs a StagnationDetector over its feedback stream and, on
/// trigger, re-clusters a reservoir sample of recent feedback (MineClus + the
/// paper's initializer) into a fresh histogram that hot-swaps through the
/// shard's normal snapshot publish — readers never block on the rebuild.
struct ReinitConfig {
  bool enabled = false;

  /// The attribute-value domain D of the rebuilt histograms and the trivial
  /// control. Required when enabled (the fleet cannot infer it: the initial
  /// histogram's root box is not exposed by the Histogram API).
  Box domain;

  StagnationConfig detector;
  ReservoirConfig reservoir;

  /// Clustering of the reservoir before the rebuilt histogram is
  /// initialized (paper §4.1 run online over the reservoir instead of
  /// offline over the relation; the initializer runs with its defaults).
  MineClusConfig mineclus;

  /// Bucket budget of rebuilt STHoles histograms.
  size_t max_buckets = 100;

  /// true: rebuild on a builder thread while the pool keeps applying the
  /// tenant's feedback (production mode — reads and refinement never block
  /// on the rebuild); the finished builder reschedules its shard, and the
  /// pool worker that claims it swaps the rebuilt histogram in. false:
  /// rebuild inline on the pool worker that applied the triggering feedback,
  /// which makes the whole trigger→swap sequence deterministic for tests.
  bool background = true;

  /// Fault injection on the rebuild path: the oracle feeding the
  /// re-initializer is wrapped in a FaultyOracle with this config when
  /// rate > 0. Each rebuild gets its own injector instance (FaultyOracle is
  /// stateful and not thread-safe).
  FaultConfig rebuild_faults;

  /// TEST/BENCH hook: replaces MineClus + initializer when set. Receives the
  /// reservoir sample and the domain total; returns the rebuilt histogram
  /// (nullptr = rebuild failure, exercising the abort path).
  std::function<std::unique_ptr<Histogram>(const Dataset& sample,
                                           double total_tuples)>
      rebuild_override;
};

/// Per-tenant options of ServiceFleet::AddTenant.
struct TenantOptions {
  /// Feedback items already baked into the initial histogram by an earlier
  /// incarnation of the tenant (its applied-feedback watermark in the STHF
  /// snapshot it was restored from; 0 for a cold start). SaveSnapshot adds
  /// the shard's published count to it, so a save→restore→save chain keeps
  /// the watermark cumulative over the whole feedback history.
  size_t restored_feedback = 0;

  /// Stagnation detection + online re-initialization (DESIGN.md §14).
  ReinitConfig reinit;
};

/// Tuning knobs for ServiceFleet (DESIGN.md §16).
struct FleetConfig {
  /// Refiner pool size: worker threads shared by every shard. The pool is
  /// the fleet's whole write-side budget — thousands of tenants share these
  /// K threads instead of spawning one refiner thread each.
  size_t refiners = 2;

  /// Per-shard feedback queue capacity. A full shard queue sheds that
  /// shard's newest feedback (kQueueFull) without ever touching any other
  /// shard — overload is isolated to the tenant causing it.
  size_t queue_capacity = 1024;

  /// Maximum feedback items one refiner run applies to a shard before
  /// publishing and releasing the claim. Bounds both snapshot staleness and
  /// how long one backlogged shard can monopolize a pool worker.
  size_t publish_batch = 64;

  /// Base seed of the fleet's deterministic tenant hashing: TenantId(key) is
  /// a pure function of (seed, key), so shard identities — and everything a
  /// driver derives from them (per-tenant workload seeds in fleet-sim and
  /// the tests) — replay bit-identically across runs and refiner counts.
  uint64_t seed = 0;

  /// Registry receiving serve.fleet.* (DESIGN.md §13). Null means the
  /// process-wide obs::GlobalMetrics(). The fleet's own counters (stats())
  /// are these same cells, so a disabled registry is replaced by a private
  /// one instead of silently losing counts.
  obs::MetricsRegistry* metrics = nullptr;

  /// Fault injection on the refine path: when rate > 0 every shard wraps its
  /// oracle in its own FaultyOracle with this config, so the oracle answers
  /// a pool worker consumes for that shard (detector observations and Refine
  /// feedback counts) may be corrupted — the serving loop's fault coverage.
  /// Readers never consult the oracle; the trivial control and rebuilds read
  /// the clean one.
  FaultConfig faults;
};

/// What happened to one SubmitFeedback call. Both rejection outcomes mean
/// the item was shed (never blocked on); they differ in what the caller can
/// do about it: a full shard queue is transient backpressure, a stopped
/// shard (removed tenant or stopped fleet) is final.
enum class FleetFeedbackOutcome {
  kAccepted,
  kQueueFull,
  kStopped,
};

/// Fleet counters: the aggregate view over every shard. Counters are sampled
/// individually from relaxed atomics — totals can be one event apart under
/// concurrency, exact once the fleet is quiescent (after Drain or Stop).
struct FleetStats {
  /// Tenants currently resident in the shard map.
  size_t tenants = 0;
  /// Lifetime AddTenant / RemoveTenant successes.
  size_t tenants_added = 0;
  size_t tenants_removed = 0;
  /// Queries served from shard snapshots (Estimate).
  size_t reads_served = 0;
  /// Feedback admitted to / shed by shard queues, fleet-wide.
  size_t feedback_accepted = 0;
  size_t feedback_dropped_full = 0;
  size_t feedback_dropped_stopped = 0;
  /// Feedback folded into shard working copies.
  size_t feedback_applied = 0;
  /// Snapshot publishes, fleet-wide.
  size_t publishes = 0;
  /// Refiner-pool shard runs (claim → drain batch → publish → release).
  size_t shard_runs = 0;
  /// Feedback currently waiting in shard queues, fleet-wide.
  size_t queue_depth = 0;

  size_t feedback_dropped() const {
    return feedback_dropped_full + feedback_dropped_stopped;
  }
};

/// One tenant's counters: its slice of the feedback flow plus its drift loop.
/// Same consistency contract as FleetStats.
struct TenantStats {
  size_t feedback_accepted = 0;
  size_t feedback_applied = 0;
  /// Accepted feedback not yet visible to readers (queued, or applied to
  /// the working copy but not yet published). 0 means readers see every
  /// accepted item.
  size_t staleness = 0;

  /// The drift loop (all zero for a tenant without re-init): detector
  /// triggers, rebuilds swapped in / abandoned (validation failure or a null
  /// rebuild, the incumbent keeps serving), rebuild-window feedback replayed
  /// onto rebuilt histograms, and points held by the feedback reservoir.
  size_t reinit_triggers = 0;
  size_t reinit_swaps_completed = 0;
  size_t reinit_swaps_aborted = 0;
  size_t reinit_replayed = 0;
  size_t reservoir_size = 0;
  /// Most recent rolling NAE the detector computed; NaN before its first
  /// observation, 0 without re-init.
  double rolling_nae = 0.0;
};

/// Sharded multi-tenant histogram serving (DESIGN.md §16): one process,
/// one to thousands of independently self-tuning histograms.
///
/// Each tenant key owns one shard, the serving cell: lock-free snapshot
/// reads through an `atomic<shared_ptr<const Histogram>>`, a bounded MPSC
/// feedback queue that sheds instead of blocking, a private working copy,
/// and — for tenants added with TenantOptions::reinit — the drift loop of
/// DESIGN.md §14 (a rolling-NAE stagnation detector over the served
/// estimates, a reservoir sample of the feedback, and MineClus + initializer
/// rebuilds that hot-swap through the same publish). Refinement is pooled:
/// K refiner threads (core/thread_pool) drain all shard queues via a
/// work-claiming scheme instead of one thread per histogram.
///
/// The claiming rule: every shard carries an atomic `in_flight` state
/// (idle → queued → running → running-dirty). A shard is enqueued to the
/// pool only by the one thread that wins the idle→queued transition, and
/// only the pool worker that owns the queued→running transition may touch
/// the shard's working histogram and drift loop — so a shard is never
/// refined by two workers, and each shard's feedback is applied in exact
/// FIFO order. Consequence: after Drain, every shard's snapshot is
/// bitwise-identical to a single-threaded replay of its accepted feedback —
/// independent of the refiner count, of other tenants' traffic, and of
/// scheduling (tests/fleet_test.cc holds this to std::bit_cast equality).
/// With re-init the same holds in synchronous rebuild mode
/// (ReinitConfig::background = false); background rebuilds keep every
/// guarantee except *when* the swap lands relative to concurrent feedback.
///
/// Map lookups take a shared (reader) lock that is never held across
/// estimation or refinement; AddTenant/RemoveTenant take it exclusively.
/// Tenants are removable during live traffic: readers holding a snapshot
/// keep it; queued feedback of a removed tenant is still drained (applied,
/// never published) so fleet counters stay consistent. No rebuild thread
/// outlives the fleet: Stop (and so the destructor) waits for every
/// in-flight rebuild, removed tenants' included, and swaps it in.
///
/// Every histogram must support Clone(); every oracle must be
/// const-thread-safe and outlive its tenant.
class ServiceFleet {
 public:
  /// Feedback applied while a re-init tenant's rebuild is in flight is also
  /// retained (up to this many items) and replayed onto the rebuilt
  /// histogram before it swaps in, so the swap does not forget the queries
  /// of the rebuild window. Overflow is shed oldest-kept-first (the
  /// reservoir still saw every item).
  static constexpr size_t kReplayCapacity = 4096;

  /// A re-init tenant's trivial control re-reads its total tuple count from
  /// the oracle every this many observed feedback items (drift moves the
  /// row count; a stale control skews the NAE).
  static constexpr size_t kTrivialRefresh = 1024;

  explicit ServiceFleet(const FleetConfig& config = {});

  /// Stops the fleet (drains every shard, finishes in-flight rebuilds, and
  /// joins the refiner pool).
  ~ServiceFleet();

  ServiceFleet(const ServiceFleet&) = delete;
  ServiceFleet& operator=(const ServiceFleet&) = delete;

  /// Registers `key` with `initial` as its working histogram and publishes
  /// its Snapshot() as the shard's first snapshot. Errors: kInvalidArgument
  /// for an empty key, a null histogram, one without Clone() support, or an
  /// enabled ReinitConfig with an empty domain or invalid detector,
  /// reservoir or MineClus knobs; a second Add of a live key is also
  /// kInvalidArgument; kUnavailable after Stop. The oracle must outlive the
  /// tenant.
  Status AddTenant(std::string_view key, std::unique_ptr<Histogram> initial,
                   const CardinalityOracle& oracle,
                   const TenantOptions& options = {});

  /// Unregisters `key`: subsequent lookups report kNotFound, queued feedback
  /// is drained off-snapshot, snapshots already held by readers stay valid.
  /// Errors: kNotFound for an unknown key.
  Status RemoveTenant(std::string_view key);

  bool HasTenant(std::string_view key) const;

  /// The keys currently resident, sorted (deterministic iteration order for
  /// drivers and tests).
  std::vector<std::string> TenantKeys() const;

  /// Seed-deterministic shard identity: SplitMix64 over (config.seed, key).
  /// Stable across processes and refiner counts; fleet-sim derives each
  /// tenant's workload seed from it.
  uint64_t TenantId(std::string_view key) const;

  /// Estimated cardinality of `query` against Snapshot(key); kNotFound for
  /// an unknown tenant. Counted in serve.fleet.reads.
  StatusOr<double> Estimate(std::string_view key, const Box& query) const;

  /// The shard's current snapshot, or nullptr for an unknown tenant: the
  /// fleet's one read lookup. The map's shared lock covers only the find and
  /// the snapshot-pointer load, never estimation or refinement. Callers may
  /// hold the snapshot arbitrarily long, including across RemoveTenant; a
  /// caller that needs several reads from one epoch holds one snapshot.
  std::shared_ptr<const Histogram> Snapshot(std::string_view key) const;

  /// Submits one executed query's box as refinement feedback for `key`;
  /// never blocks. kNotFound for an unknown tenant, otherwise the shard
  /// queue's verdict. A full queue sheds only this tenant's feedback.
  ///
  /// `served_estimate` is the estimate the caller served for this query —
  /// what a re-init tenant's stagnation detector grades. Callers that did
  /// not capture one pass NaN (the default): a re-init tenant then samples
  /// its current snapshot here, so the detector never silently loses its
  /// signal. Tenants without re-init ignore it.
  StatusOr<FleetFeedbackOutcome> SubmitFeedback(
      std::string_view key, const Box& query,
      double served_estimate = std::numeric_limits<double>::quiet_NaN());

  /// Blocks until every feedback item accepted (fleet-wide) before this call
  /// has been applied and its shard's snapshot republished, i.e. staleness
  /// from the caller's viewpoint is 0. Concurrent submitters can keep the
  /// horizon moving; with quiescent producers this is a precise barrier.
  /// Always returns OK: every accepted item is eventually applied, Stop
  /// included. An in-flight background rebuild does not hold it hostage.
  Status Drain();

  /// Per-tenant drain: blocks until `key`'s feedback accepted before this
  /// call is applied and published. Unlike the fleet-wide Drain this cannot
  /// be held hostage by another tenant's parked oracle. kNotFound for an
  /// unknown tenant.
  Status DrainTenant(std::string_view key);

  /// Closes every shard queue, flushes what they hold through the pool,
  /// completes (or aborts) every in-flight rebuild, and quiesces the
  /// refiners. Estimation keeps working against the final snapshots;
  /// subsequent feedback is shed, AddTenant refuses. Idempotent.
  void Stop();

  /// Persists every tenant's current snapshot, its applied-feedback
  /// watermark, and the fleet seed to `path` as a versioned binary "STHF"
  /// container, written atomically — the warm-restart and replica hand-off
  /// primitive (DESIGN.md §17). Tenants are saved in sorted key order, each
  /// as its histogram's SerializeBinary() blob. A tenant's snapshot and
  /// watermark are read as one pair under its publish lock, so the
  /// watermark always describes exactly the histogram saved — after Drain()
  /// it is the tenant's full accepted feedback history. The cut across
  /// tenants is only as consistent as the caller makes it: call Drain()
  /// first for a fleet-wide consistent cut. Fails with a Status if any
  /// tenant's histogram does not support binary snapshots or the file
  /// cannot be written.
  Status SaveSnapshot(const std::string& path) const;

  /// Aggregate counters (see FleetStats for the consistency caveat). Typed
  /// view over the serve.fleet.* registry cells.
  FleetStats stats() const;

  /// One tenant's counters; kNotFound for an unknown tenant.
  StatusOr<TenantStats> tenant_stats(std::string_view key) const;

  /// The registry holding this fleet's serve.fleet.* metrics.
  const obs::MetricsRegistry& metrics_registry() const { return *registry_; }

 private:
  struct Feedback;
  struct Reinit;
  struct Shard;

  /// The shard handle, for the calls that need more than its snapshot
  /// (SubmitFeedback, DrainTenant, tenant_stats, HasTenant); reads go
  /// through Snapshot(key).
  std::shared_ptr<Shard> FindShard(std::string_view key) const;

  /// The claiming step: moves `shard` toward execution if no run is already
  /// pending, marking a running shard dirty instead. Safe from any thread;
  /// at most one pool task per shard ever exists.
  void ScheduleShard(std::shared_ptr<Shard> shard);

  /// One refiner run: claim kRunning, swap in a finished rebuild, drain up
  /// to publish_batch items in FIFO order, publish, release (re-queueing if
  /// dirty or backlogged).
  void RunShard(const std::shared_ptr<Shard>& shard);

  /// Folds one item into the shard's drift loop (when it has one) and its
  /// working copy. Claim holder only.
  void ApplyFeedback(const std::shared_ptr<Shard>& shard,
                     const Feedback& feedback);

  /// Starts a rebuild from the shard's reservoir on a builder thread, or —
  /// in synchronous mode — runs it and swaps it in before returning. Claim
  /// holder only; no-op bookkeeping aside if one is in flight.
  void StartRebuild(const std::shared_ptr<Shard>& shard);

  /// The rebuild body: clusters the sample, initializes a fresh histogram,
  /// validates it. Touches only the shard's immutable config, its clean
  /// oracle, and the rebuild slots handed over by StartRebuild.
  void RunRebuild(Shard* shard) const;

  /// Joins the builder, replays the rebuild-window feedback, and makes the
  /// rebuilt histogram the working copy (or aborts to the incumbent).
  /// Returns whether a swap landed. Claim holder only.
  bool CompleteSwap(Shard* shard);

  void PublishShard(Shard* shard);
  void NotifyDrain();
  Status WaitForShards(
      const std::vector<std::pair<std::shared_ptr<Shard>, size_t>>& targets);

  const FleetConfig config_;

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;

  // Hashes std::string and std::string_view alike (the same values as
  // std::hash<std::string>), so a lookup by string_view builds no
  // std::string: heterogeneous find with std::equal_to<>.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  mutable std::shared_mutex map_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Shard>, KeyHash,
                     std::equal_to<>>
      shards_;
  bool stopped_ = false;  // Guarded by map_mutex_.

  // serve.fleet.* handles; stats() reads these same cells back.
  obs::Gauge tenants_;
  obs::Counter tenants_added_;
  obs::Counter tenants_removed_;
  obs::Counter reads_;
  obs::Counter accepted_;
  obs::Counter dropped_full_;
  obs::Counter dropped_stopped_;
  obs::Counter applied_;
  obs::Counter publishes_;
  obs::Counter shard_runs_;
  obs::Gauge queue_depth_;
  obs::LatencyHistogram publish_seconds_;

  // serve.snapshot.* handles (persistence, DESIGN.md §17).
  obs::Counter snapshot_saves_;
  obs::Gauge snapshot_bytes_;
  obs::LatencyHistogram snapshot_save_seconds_;

  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  /// Background builder threads started and not yet joined, fleet-wide
  /// (removed tenants' included); Stop waits for this to reach zero.
  std::mutex rebuild_mutex_;
  std::condition_variable rebuild_cv_;
  size_t builders_ = 0;  // Guarded by rebuild_mutex_.

  /// Declared last so nothing the workers touch outlives them; explicitly
  /// reset in the destructor after Stop.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace sthist

#endif  // STHIST_SERVE_SERVICE_FLEET_H_
