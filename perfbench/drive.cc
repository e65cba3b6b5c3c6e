#include <pthread.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "workloads.h"

namespace perfbench {

ReadPath::ReadPath(const sthist::ServiceFleet& fleet,
                   const std::vector<std::string>& keys, bool traced)
    : fleet_(&fleet), keys_(&keys), traced_(traced) {
  if (traced_) last_seen_.resize(keys.size());
}

void ReadPath::Rebind(const sthist::ServiceFleet& fleet,
                      const std::vector<std::string>& keys) {
  fleet_ = &fleet;
  keys_ = &keys;
  last_seen_.clear();
  if (traced_) last_seen_.resize(keys.size());
}

double ReadPath::Read(size_t tenant, const sthist::Box& query, bool timed) {
  ++reads;
  const std::string& key = (*keys_)[tenant];
  double estimate = -1.0;
  if (!traced_) {
    const int64_t start = timed ? NowNs() : 0;
    sthist::StatusOr<double> result = fleet_->Estimate(key, query);
    if (timed) latency_ns[0].Add(static_cast<double>(NowNs() - start));
    if (result.ok()) estimate = *result;
  } else {
    const int64_t start = timed ? NowNs() : 0;
    std::shared_ptr<const sthist::Histogram> snap = fleet_->Snapshot(key);
    const bool cold = snap != nullptr && last_seen_[tenant] != snap;
    const int64_t loaded = timed || cold ? NowNs() : 0;
    if (snap != nullptr) estimate = snap->Estimate(query);
    if (snap != nullptr && (timed || cold)) {
      const int64_t end = NowNs();
      if (cold) {
        cold_ns.Add(static_cast<double>(end - loaded));
        last_seen_[tenant] = std::move(snap);
      } else {
        estimate_ns.Add(static_cast<double>(end - loaded));
      }
      if (timed) {
        latency_ns[0].Add(static_cast<double>(end - start));
        snapshot_ns.Add(static_cast<double>(loaded - start));
      }
    }
  }
  if (!(std::isfinite(estimate) && estimate >= 0.0)) {
    ++failed;
    return -1.0;
  }
  return estimate;
}

void ReadPath::Merge(const ReadPath& other) {
  reads += other.reads;
  failed += other.failed;
  latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                    other.latency_ns.end());
  snapshot_ns.Append(other.snapshot_ns);
  estimate_ns.Append(other.estimate_ns);
  cold_ns.Append(other.cold_ns);
}

LockstepResult RunLockstep(sthist::ServiceFleet& fleet,
                           const std::vector<std::string>& keys,
                           ReadPath& reads,
                           const std::vector<LockstepItem>& items,
                           double seconds, size_t min_loops,
                           size_t max_loops) {
  LockstepResult out;
  const size_t cap =
      max_loops == 0 ? items.size() : std::min(max_loops, items.size());
  out.estimates.reserve(std::min<size_t>(cap, 1 << 16));
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  while (out.loops < cap) {
    const LockstepItem& item = items[out.loops];
    const std::string& key = keys[item.tenant];
    RequestScope request(out.loops + 1);
    out.estimates.push_back(reads.Read(item.tenant, *item.query, true));

    const int64_t submit = NowNs();
    sthist::StatusOr<sthist::FleetFeedbackOutcome> outcome =
        fleet.SubmitFeedback(key, *item.query);
    out.submit_ns.Add(static_cast<double>(NowNs() - submit));
    const bool accepted =
        outcome.ok() && *outcome == sthist::FleetFeedbackOutcome::kAccepted;
    const bool drained = accepted && fleet.DrainTenant(key).ok();
    const int64_t end = NowNs();
    if (drained) {
      out.visible_ns.Add(static_cast<double>(end - submit));
    } else {
      ++out.failed;
    }
    ++out.loops;
    if (out.loops >= min_loops && end >= deadline) break;
  }
  out.seconds = SecondsSince(start);
  out.attempted = out.loops;
  return out;
}

void CheckIndexAgrees(const sthist::Histogram& hist,
                      const sthist::Workload& queries, const std::string& who,
                      Report* report) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const double indexed = hist.Estimate(queries[i]);
    const double linear = hist.EstimateLinear(queries[i]);
    if (std::bit_cast<uint64_t>(indexed) != std::bit_cast<uint64_t>(linear)) {
      char why[160];
      std::snprintf(why, sizeof(why),
                    ": Estimate %.17g != EstimateLinear %.17g on query %zu",
                    indexed, linear, i);
      report->Fail(who + why);
      return;
    }
  }
}

void CheckFeedbackAccounting(const sthist::ServiceFleet& fleet,
                             uint64_t submitted, Report* report) {
  const sthist::FleetStats stats = fleet.stats();
  if (stats.feedback_accepted != stats.feedback_applied) {
    report->Fail("after Drain: accepted " +
                 std::to_string(stats.feedback_accepted) + " != applied " +
                 std::to_string(stats.feedback_applied));
  }
  const uint64_t accounted = stats.feedback_accepted +
                             stats.feedback_dropped_full +
                             stats.feedback_dropped_stopped;
  if (accounted != submitted) {
    report->Fail("accepted + shed + stopped = " + std::to_string(accounted) +
                 " != submitted " + std::to_string(submitted));
  }
}

double WatchQueueDepth(const sthist::ServiceFleet& fleet,
                       int64_t deadline_ns) {
  double depth_max = 0.0;
  while (NowNs() < deadline_ns) {
    depth_max =
        std::max(depth_max, static_cast<double>(fleet.stats().queue_depth));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return depth_max;
}

OneCpu::OneCpu() {
  if (pthread_getaffinity_np(pthread_self(), sizeof(previous_), &previous_) !=
      0) {
    return;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &previous_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
    return;
  }
}

OneCpu::~OneCpu() {
  if (pinned_) {
    pthread_setaffinity_np(pthread_self(), sizeof(previous_), &previous_);
  }
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double SpanSeconds(const std::vector<Span>& spans, const char* name) {
  return Summarize(spans, name).duration_ns.Sum() * 1e-9;
}

}  // namespace

void ReportLayers(const LayerInputs& in, Report* report) {
  const std::vector<Span>& spans = in.spans;
  report->Set("data.generate_s", SpanSeconds(spans, "data.generate"), "s");
  report->Set("index.kdtree_build_s", SpanSeconds(spans, "index.kdtree_build"),
              "s");
  report->Set("clustering.mineclus_s",
              SpanSeconds(spans, "clustering.mineclus"), "s");
  report->Set("clustering.clusters", static_cast<double>(in.clusters),
              "count");
  report->Set("init.feed_s", SpanSeconds(spans, "init.feed"), "s");
  report->Set("histogram.train_s", SpanSeconds(spans, "histogram.train"), "s");
  report->Set("serve.add_tenants_s", SpanSeconds(spans, "serve.add_tenants"),
              "s");

  const SpanSummary refine =
      Summarize(spans, "histogram.refine", "index.kdtree.count");
  const double refines = static_cast<double>(refine.duration_ns.size());
  report->Latency("histogram.refine", refine.duration_ns, "us");
  report->Set("histogram.refine_self_us", refine.self_ns.Mean() * 1e-3, "us");
  report->Set("index.kdtree.count_calls_per_refine",
              Ratio(static_cast<double>(refine.child_calls), refines),
              "count");
  report->Set("index.kdtree.count_us_per_refine",
              Ratio(refine.child_ns * 1e-3, refines), "us");

  uint64_t stholes_refines = 0, merges = 0, drills = 0, cow_copied = 0;
  uint64_t flat_probes = 0, flat_blocks = 0, tree_probes = 0, tree_visits = 0;
  uint64_t index_builds = 0;
  for (const auto& c : in.histogram_metrics->Snapshot().counters) {
    if (c.name == "histogram.stholes.refines") stholes_refines = c.value;
    if (c.name == "histogram.stholes.merges") merges = c.value;
    if (c.name == "histogram.stholes.drills") drills = c.value;
    if (c.name == "histogram.cow.copied_nodes") cow_copied = c.value;
    if (c.name == "index.flat.probes") flat_probes = c.value;
    if (c.name == "index.flat.entry_blocks") flat_blocks = c.value;
    if (c.name == "index.bucket_tree.probes") tree_probes = c.value;
    if (c.name == "index.bucket_tree.node_visits") tree_visits = c.value;
    if (c.name == "index.bucket_tree.builds") index_builds = c.value;
  }
  const double sr = static_cast<double>(stholes_refines);
  report->Set("histogram.merges_per_refine", Ratio(merges, sr), "count");
  report->Set("histogram.drills_per_refine", Ratio(drills, sr), "count");
  report->Set("histogram.cow_copied_per_refine", Ratio(cow_copied, sr),
              "count");

  const SpanSummary snapshot = Summarize(spans, "histogram.snapshot");
  report->Set("histogram.snapshot_us", snapshot.duration_ns.Mean() * 1e-3,
              "us");
  double publish_us = 0.0, queue_wait_us = 0.0;
  for (const auto& l : in.fleet->metrics_registry().Snapshot().latencies) {
    const double mean_us = Ratio(l.sum_seconds * 1e6, l.count);
    if (l.name == "serve.fleet.publish_seconds") publish_us = mean_us;
    if (l.name == "pool.thread_pool.queue_wait_seconds") {
      queue_wait_us = mean_us;
    }
  }
  const sthist::FleetStats stats = in.fleet->stats();
  report->Set("serve.publish_mean_us", publish_us, "us");
  report->Set("serve.items_per_shard_run",
              Ratio(stats.feedback_applied, stats.shard_runs), "count");
  report->Set("core.pool_queue_wait_mean_us", queue_wait_us, "us");
  report->Latency("serve.submit", in.submit_ns, "ns");
  if (in.open_loop) {
    report->Set("serve.queue_depth_max", in.queue_depth_max, "count");
    report->Set("serve.feedback_shed_frac",
                Ratio(stats.feedback_dropped(), in.submitted), "ratio");
    report->Latency("gen.late", in.late_ns, "us");
  }

  report->Set("serve.snapshot_load_ns", in.reads->snapshot_ns.Percentile(0.5),
              "ns");
  report->Latency("histogram.estimate", in.reads->estimate_ns, "ns");
  report->Set("index.flat.entry_blocks_per_probe",
              Ratio(flat_blocks, flat_probes), "count");
  report->Set("index.bucket_tree.node_visits_per_probe",
              Ratio(tree_visits, tree_probes), "count");

  Samples cold_ns = in.reads->cold_ns;
  cold_ns.Append(Summarize(spans, "histogram.estimate_cold").duration_ns);
  report->Set("histogram.estimate_cold_us", cold_ns.Percentile(0.5) * 1e-3,
              "us");
  report->Set("index.bucket_tree.builds_per_publish",
              Ratio(index_builds,
                    static_cast<double>(snapshot.duration_ns.size())),
              "count");
  report->Set("trace.overhead_frac", in.overhead_frac, "ratio");
}

}  // namespace perfbench
