#ifndef STHIST_SERVE_SERVICE_FLEET_H_
#define STHIST_SERVE_SERVICE_FLEET_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/bounded_queue.h"
#include "core/box.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "histogram/histogram.h"
#include "obs/metrics.h"

namespace sthist {

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

  /// Threads for EstimateBatch on a shard snapshot (1 = inline).
  size_t estimate_threads = 1;

  /// Base seed of the fleet's deterministic tenant hashing: TenantId(key) is
  /// a pure function of (seed, key), so shard identities — and everything a
  /// driver derives from them (per-tenant workload seeds in fleet-sim and
  /// the tests) — replay bit-identically across runs and refiner counts.
  uint64_t seed = 0;

  /// Cardinality cap for per-shard metric labels (DESIGN.md §13: the name
  /// set must stay small and static). The first `top_k_shard_labels` tenants
  /// ever added get their own `serve.fleet_shard_<label>.*` counters; every
  /// later tenant aggregates into the shared `serve.fleet_shard_other.*`
  /// cells, so the metric count is bounded no matter how many tenants live.
  size_t top_k_shard_labels = 8;

  /// Registry receiving serve.fleet.* (DESIGN.md §13). Null means the
  /// process-wide obs::GlobalMetrics(); a disabled registry is replaced by a
  /// private one so stats() never silently loses counts (same rule as
  /// HistogramService).
  obs::MetricsRegistry* metrics = nullptr;
};

/// What happened to one fleet SubmitFeedback call, mirroring
/// FeedbackOutcome: accepted, shed on a full shard queue, or shed because
/// the shard (or the whole fleet) has stopped accepting feedback.
enum class FleetFeedbackOutcome {
  kAccepted,
  kQueueFull,
  kStopped,
};

/// Fleet counters: the aggregate view over every shard. Same consistency
/// contract as ServiceStats — individually sampled relaxed atomics, exact
/// once the fleet is quiescent (after Drain or Stop).
struct FleetStats {
  /// Tenants currently resident in the shard map.
  size_t tenants = 0;
  /// Lifetime AddTenant / RemoveTenant successes.
  size_t tenants_added = 0;
  size_t tenants_removed = 0;
  /// Queries served from shard snapshots (Estimate + EstimateBatch).
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

/// Sharded multi-tenant histogram serving (DESIGN.md §16): one process,
/// thousands of independently self-tuning histograms.
///
/// Each tenant key owns one shard carrying the full single-service
/// discipline of §11 — lock-free snapshot reads through an
/// `atomic<shared_ptr<const Histogram>>`, a bounded MPSC feedback queue that
/// sheds instead of blocking — but refinement is pooled: K refiner threads
/// (core/thread_pool) drain all shard queues via a work-claiming scheme
/// instead of one thread per histogram.
///
/// The claiming rule: every shard carries an atomic `in_flight` state
/// (idle → queued → running → running-dirty). A shard is enqueued to the
/// pool only by the one thread that wins the idle→queued transition, and
/// only the pool worker that owns the queued→running transition may touch
/// the shard's working histogram — so a shard is never refined by two
/// workers, and each shard's feedback is applied in exact FIFO order.
/// Consequence: after Drain, every shard's snapshot is bitwise-identical to
/// a single-threaded replay of its accepted feedback — independent of the
/// refiner count, of other tenants' traffic, and of scheduling
/// (tests/fleet_test.cc holds this to std::bit_cast equality against both
/// refiners=1 and a standalone HistogramService).
///
/// Map lookups take a shared (reader) lock that is never held across
/// estimation or refinement; AddTenant/RemoveTenant take it exclusively.
/// Tenants are removable during live traffic: readers holding a snapshot
/// keep it; queued feedback of a removed tenant is still drained (applied,
/// never published) so fleet counters stay consistent.
///
/// Every histogram must support Clone(); every oracle must be
/// const-thread-safe and outlive its tenant.
class ServiceFleet {
 public:
  explicit ServiceFleet(const FleetConfig& config = {});

  /// Stops the fleet (drains every shard and joins the refiner pool).
  ~ServiceFleet();

  ServiceFleet(const ServiceFleet&) = delete;
  ServiceFleet& operator=(const ServiceFleet&) = delete;

  /// Registers `key` with `initial` as its working histogram and publishes
  /// its Snapshot() as the shard's first snapshot. Errors: kInvalidArgument
  /// for an empty key, a null histogram, or one without Clone() support; a
  /// second Add of a live key is also kInvalidArgument; kUnavailable after
  /// Stop. The oracle must outlive the tenant.
  Status AddTenant(std::string_view key, std::unique_ptr<Histogram> initial,
                   const CardinalityOracle& oracle);

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

  /// Estimated cardinality of `query` against `key`'s current snapshot.
  /// Lock-free with respect to refinement (the map lookup is a shared lock,
  /// dropped before estimating); kNotFound for an unknown tenant.
  StatusOr<double> Estimate(std::string_view key, const Box& query) const;

  /// Batch estimation against one consistent shard snapshot.
  StatusOr<std::vector<double>> EstimateBatch(std::string_view key,
                                              std::span<const Box> queries) const;

  /// The shard's current snapshot, or nullptr for an unknown tenant.
  /// Callers may hold it arbitrarily long, including across RemoveTenant.
  std::shared_ptr<const Histogram> Snapshot(std::string_view key) const;

  /// Submits one executed query's box as refinement feedback for `key`;
  /// never blocks. kNotFound for an unknown tenant, otherwise the shard
  /// queue's verdict. A full queue sheds only this tenant's feedback.
  StatusOr<FleetFeedbackOutcome> SubmitFeedback(std::string_view key,
                                                const Box& query);

  /// Blocks until every feedback item accepted (fleet-wide) before this call
  /// has been applied and its shard's snapshot republished. Same horizon
  /// semantics as HistogramService::Drain; concurrent submitters keep the
  /// horizon moving. Returns OK once reached, kUnavailable only if the pool
  /// can no longer reach it (cannot happen through the public API — Stop
  /// flushes every queue first).
  Status Drain();

  /// Per-tenant drain: blocks until `key`'s feedback accepted before this
  /// call is applied and published. Unlike the fleet-wide Drain this cannot
  /// be held hostage by another tenant's parked oracle. kNotFound for an
  /// unknown tenant.
  Status DrainTenant(std::string_view key);

  /// Closes every shard queue, flushes what they hold through the pool, and
  /// quiesces the refiners. Estimation keeps working against the final
  /// snapshots; subsequent feedback is shed, AddTenant refuses. Idempotent.
  void Stop();

  /// Persists every tenant's current snapshot (plus the fleet seed) to
  /// `path` as a versioned binary "STHF" container, written atomically —
  /// the replica hand-off / warm-restart primitive (DESIGN.md §17). Tenants
  /// are saved in sorted key order, each as its histogram's
  /// SerializeBinary() blob. Each tenant's snapshot is internally consistent
  /// (an atomic epoch), but the cut across tenants is only as consistent as
  /// the caller makes it: call Drain() first for a fleet-wide consistent
  /// cut. Fails with a Status if any tenant's histogram does not support
  /// binary snapshots or the file cannot be written.
  Status SaveSnapshot(const std::string& path) const;

  /// Aggregate counters (see FleetStats for the consistency caveat). Typed
  /// view over the serve.fleet.* registry cells.
  FleetStats stats() const;

  /// The registry holding this fleet's serve.fleet.* metrics.
  const obs::MetricsRegistry& metrics_registry() const { return *registry_; }

 private:
  /// Claim states of one shard, the `in_flight` discipline. Only the thread
  /// that wins kIdle→kQueued may enqueue the shard; only the pool worker
  /// that performs kQueued→kRunning may refine it; a producer that finds it
  /// kRunning marks kRunningDirty and the running worker re-queues on
  /// release instead of going idle.
  enum InFlight : uint32_t {
    kIdle = 0,
    kQueued = 1,
    kRunning = 2,
    kRunningDirty = 3,
  };

  struct Shard {
    Shard(std::string key, uint64_t id, size_t queue_capacity)
        : key(std::move(key)), id(id), queue(queue_capacity) {}

    const std::string key;
    const uint64_t id;  // TenantId(key): seed-deterministic.

    /// Refiner-side working copy; touched only by the worker holding the
    /// kRunning claim.
    std::unique_ptr<Histogram> working;
    std::atomic<std::shared_ptr<const Histogram>> snapshot;
    const CardinalityOracle* oracle = nullptr;

    BoundedQueue<Box> queue;
    std::atomic<uint32_t> in_flight{kIdle};

    /// Set by RemoveTenant: remaining feedback is drained (counters stay
    /// consistent) but no further snapshot is published.
    std::atomic<bool> removed{false};

    /// Per-shard horizon counters for Drain (fleet metric cells are
    /// aggregates and cannot answer per-shard questions).
    std::atomic<size_t> accepted{0};
    std::atomic<size_t> applied{0};
    std::atomic<size_t> published{0};

    /// Label-capped per-shard cells ("serve.fleet_shard_<label>.*", shared
    /// with every other over-cap shard when the label is "other").
    obs::Counter label_reads;
    obs::Counter label_applied;
  };

  std::shared_ptr<Shard> FindShard(std::string_view key) const;

  /// The claiming step: moves `shard` toward execution if no run is already
  /// pending, marking a running shard dirty instead. Safe from any thread;
  /// at most one pool task per shard ever exists.
  void ScheduleShard(std::shared_ptr<Shard> shard);

  /// One refiner run: claim kRunning, drain up to publish_batch items in
  /// FIFO order, publish, release (re-queueing if dirty or backlogged).
  void RunShard(const std::shared_ptr<Shard>& shard);

  void PublishShard(Shard* shard);
  void NotifyDrain();
  Status WaitForShards(
      const std::vector<std::pair<std::shared_ptr<Shard>, size_t>>& targets);

  const FleetConfig config_;

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;

  mutable std::shared_mutex map_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Shard>> shards_;
  size_t labels_assigned_ = 0;  // Guarded by map_mutex_.
  bool stopped_ = false;        // Guarded by map_mutex_.

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

  // serve.snapshot.* handles (persistence, DESIGN.md §17); same cell names
  // as HistogramService's, so a process saving through both aggregates.
  obs::Counter snapshot_saves_;
  obs::Gauge snapshot_bytes_;
  obs::LatencyHistogram snapshot_save_seconds_;

  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  /// Declared last so nothing the workers touch outlives them; explicitly
  /// reset in the destructor after Stop.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace sthist

#endif  // STHIST_SERVE_SERVICE_FLEET_H_
