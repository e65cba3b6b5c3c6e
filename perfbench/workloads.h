#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three workloads and the pieces they share: the timed read path, the
// lock-step learn loop, the correctness checks and the per-layer report.

#include <sched.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/service_fleet.h"
#include "setup.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (CSV); empty: nowhere.
  std::string trace_out;
};

/// Each fills `report` with the end-to-end metrics (untraced run) or the
/// per-layer metrics (traced run), and fails it on any broken check.
void RunLearn1t(const Options& options, Report* report);
void RunFleetRead1k(const Options& options, Report* report);
void RunFleetMixed1k(const Options& options, Report* report);

/// Set-up repetitions per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Reads against a fleet, timed and checked. Untraced, a read is one
/// ServiceFleet::Estimate. Traced, it is ServiceFleet::Snapshot followed by
/// the snapshot's Estimate, each timed, and the first read of every newly
/// published snapshot of a tenant is timed as a cold read.
class ReadPath {
 public:
  ReadPath(const sthist::ServiceFleet& fleet,
           const std::vector<std::string>& keys, bool traced);

  /// One read; `timed` records its latency. Returns the estimate, or a
  /// negative value after counting a failure (a non-OK status, or an
  /// estimate that is not finite and >= 0).
  double Read(size_t tenant, const sthist::Box& query, bool timed);

  /// Reads `fleet`'s tenants from now on, keeping the samples taken so far.
  void Rebind(const sthist::ServiceFleet& fleet,
              const std::vector<std::string>& keys);

  void Merge(const ReadPath& other);

  uint64_t reads = 0;
  uint64_t failed = 0;
  /// Read latencies, one part per thread merged in (this path's first),
  /// each in the order taken.
  std::vector<Samples> latency_ns = std::vector<Samples>(1);
  Samples snapshot_ns;   // Traced only.
  Samples estimate_ns;   // Traced only, warm reads.
  Samples cold_ns;       // Traced only, first read of a snapshot.

 private:
  const sthist::ServiceFleet* fleet_;
  const std::vector<std::string>* keys_;
  const bool traced_;
  std::vector<std::shared_ptr<const sthist::Histogram>> last_seen_;
};

/// One lock-step item: the tenant and the query it reads and learns.
struct LockstepItem {
  uint32_t tenant = 0;
  const sthist::Box* query = nullptr;
};

struct LockstepResult {
  size_t loops = 0;
  double seconds = 0.0;
  std::vector<double> estimates;  // What each loop's read returned.
  Samples submit_ns;
  Samples visible_ns;  // SubmitFeedback start to DrainTenant return.
  /// Feedback submissions, and those refused or not made visible. Reads
  /// are counted by the ReadPath.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Closed loop in lock-step: read the item's query, submit it as feedback,
/// wait until it is visible (DrainTenant). Runs items in order until at
/// least `min_loops` are done and `seconds` have passed, stopping early at
/// `max_loops` or when the items run out.
LockstepResult RunLockstep(sthist::ServiceFleet& fleet,
                           const std::vector<std::string>& keys,
                           ReadPath& reads,
                           const std::vector<LockstepItem>& items,
                           double seconds, size_t min_loops, size_t max_loops);

/// Fails `report` unless `hist` answers Estimate and EstimateLinear bit for
/// bit alike on every query.
void CheckIndexAgrees(const sthist::Histogram& hist,
                      const sthist::Workload& queries, const std::string& who,
                      Report* report);

/// Fails `report` unless the fleet, quiescent after Drain, applied all it
/// accepted and accounted for every one of `submitted` submissions.
void CheckFeedbackAccounting(const sthist::ServiceFleet& fleet,
                             uint64_t submitted, Report* report);

/// What a traced run measured, turned into the per-layer metrics.
struct LayerInputs {
  std::vector<Span> spans;
  size_t clusters = 0;
  /// Registry of the traced histogram copies and the traced fleet; both
  /// must still be alive.
  const sthist::obs::MetricsRegistry* histogram_metrics = nullptr;
  const sthist::ServiceFleet* fleet = nullptr;
  const ReadPath* reads = nullptr;
  Samples submit_ns;
  uint64_t submitted = 0;
  double overhead_frac = 0.0;
  /// fleet-mixed-1k only: the open-loop feeder's lateness, the largest
  /// fleet-wide queue depth seen, and the share of submissions shed.
  bool open_loop = false;
  Samples late_ns;
  double queue_depth_max = 0.0;
};
void ReportLayers(const LayerInputs& in, Report* report);

/// Samples the fleet's queue depth every millisecond until `deadline_ns`
/// and returns the largest: what a traced run's main thread does while the
/// workload threads run (an untraced run's main thread just sleeps).
double WatchQueueDepth(const sthist::ServiceFleet& fleet, int64_t deadline_ns);

/// While alive, keeps the calling thread, and every thread it starts, on
/// one CPU (the last one it may use). Lock-step loops run their client and
/// the fleet's refiner under one: only one of them is ever runnable, and
/// sharing a core turns each hand-off into a context switch, instead of a
/// wake-up of an idle CPU and a cache transfer whose cost depends on where
/// the scheduler happened to put the two threads.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t previous_;
  bool pinned_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
