// fleet-read-1k and fleet-mixed-1k: 1024 STHoles tenants with a 50-bucket
// budget, bit-exact copies of four MineClus-initialized, trained templates
// over a 2-d Cross and a 6-d Gauss relation at reduced size.
//
// fleet-read-1k: three closed-loop readers make single Estimate calls on
// uniformly chosen tenants; no feedback runs beside them, so the read path
// (shard lookup, snapshot load, index probe, arithmetic) does all the work.
// A short lock-step feedback phase follows the timed reads, and gives the
// workload's learn and visibility figures for a 1k fleet at rest; snapshots
// held from before it must still answer consistently after it.
//
// fleet-mixed-1k: two refiners; one closed-loop reader and one open-loop
// feeder at a fixed rate, both Zipf-skewed over tenants; a sampler thread
// drains one sampled submission in kVisibleEvery to time when it becomes
// visible, so the feeder's schedule never blocks.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "core/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kTenants = 1024;
constexpr size_t kBuckets = 50;
constexpr size_t kTemplates = 4;  // Alternating over the two relations.
constexpr size_t kTrainQueries = 200;
constexpr size_t kProbeQueries = 512;
constexpr size_t kFeedbackQueries = size_t{1} << 15;
constexpr size_t kDraws = size_t{1} << 16;  // Per thread, used cyclically.
constexpr size_t kTimedEvery = 64;          // One read in 64 is timed.
constexpr size_t kReadThreads = 3;          // fleet-read-1k.
constexpr size_t kLockstepLoops = 20000;    // fleet-read-1k feedback phase.
constexpr size_t kHeldSnapshots = 64;
constexpr size_t kVisibleEvery = 8;         // fleet-mixed-1k sampling.
constexpr double kZipf = 1.0;
/// fleet-mixed-1k feeder rate in items/s. On a 4-vCPU Xeon VM the two
/// refiners applied 4.3k items/s with the feeder submitting as fast as it
/// could and 5.9k items/s at an offered 8000/s (16% shed), so this is about
/// half the first and a third of the second.
constexpr double kFeedRate = 2000.0;

// Seed roles, one independent stream each.
constexpr uint64_t kProbeRole = 10;
constexpr uint64_t kFeedbackRole = 20;
constexpr uint64_t kTrainRole = 30;
constexpr uint64_t kReadDrawRole = 40;
constexpr uint64_t kFeedDrawRole = 50;
constexpr uint64_t kZipfRole = 60;
constexpr uint64_t kLockstepRole = 70;

/// Draws tenants uniformly, or Zipf-skewed with the hot ranks scattered
/// over tenants by a seeded permutation.
class TenantSampler {
 public:
  TenantSampler(size_t tenants, double zipf, uint64_t seed) : n_(tenants) {
    if (zipf <= 0.0) return;
    double total = 0.0;
    for (size_t rank = 1; rank <= tenants; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), zipf);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (size_t t = 0; t < tenants; ++t) tenant_of_rank_.push_back(t);
    sthist::Rng rng(seed);
    rng.Shuffle(&tenant_of_rank_);
  }

  uint32_t Draw(sthist::Rng& rng) const {
    if (cdf_.empty()) return static_cast<uint32_t>(rng.Index(n_));
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform01());
    const size_t rank =
        std::min(static_cast<size_t>(it - cdf_.begin()), n_ - 1);
    return static_cast<uint32_t>(tenant_of_rank_[rank]);
  }

 private:
  size_t n_;
  std::vector<double> cdf_;
  std::vector<size_t> tenant_of_rank_;
};

struct Draw {
  uint32_t tenant = 0;
  uint32_t query = 0;
};

std::vector<Draw> MakeDraws(size_t n, const TenantSampler& tenants,
                            size_t queries, uint64_t seed) {
  sthist::Rng rng(seed);
  std::vector<Draw> draws(n);
  for (Draw& d : draws) {
    d.tenant = tenants.Draw(rng);
    d.query = static_cast<uint32_t>(rng.Index(queries));
  }
  return draws;
}

/// The i-th of the kHeldSnapshots tenants whose snapshots are held and
/// checked: spread over the fleet and over every template.
size_t HeldTenant(size_t i) {
  return i * (kTenants / kHeldSnapshots) + i % kTemplates;
}

struct FleetSetup {
  std::vector<std::unique_ptr<Relation>> relations;
  std::vector<Probes> probes;               // Per relation.
  std::vector<sthist::Workload> feedback;   // Per relation.
  std::vector<std::unique_ptr<sthist::STHoles>> hists;
  std::vector<Template> templates;
  std::vector<std::vector<Draw>> read_draws;  // Per reader thread.
  std::vector<Draw> feed_draws;
  std::vector<LockstepItem> lockstep;

  size_t relation_of(size_t tenant) const {
    return (tenant % templates.size()) % relations.size();
  }
  size_t clusters() const {
    size_t n = 0;
    for (const auto& r : relations) n += r->clusters.size();
    return n;
  }
};

std::unique_ptr<FleetSetup> BuildFleetSetup(uint64_t seed, bool mixed) {
  auto s = std::make_unique<FleetSetup>();
  s->relations.push_back(BuildRelation([] {
    sthist::CrossConfig config;
    config.tuples_per_cluster = 5000;
    config.noise_tuples = 1000;
    return sthist::MakeCross(config);
  }));
  s->relations.push_back(BuildRelation([] {
    sthist::GaussConfig config;
    config.cluster_tuples = 20000;
    config.noise_tuples = 2000;
    return sthist::MakeGauss(config);
  }));
  for (size_t r = 0; r < s->relations.size(); ++r) {
    const Relation& rel = *s->relations[r];
    s->probes.push_back(MakeProbes(
        rel, MakeQueries(rel, kProbeQueries,
                         sthist::DeriveSeed(seed, kProbeRole + r))));
    s->feedback.push_back(MakeQueries(
        rel, kFeedbackQueries, sthist::DeriveSeed(seed, kFeedbackRole + r)));
  }
  for (size_t t = 0; t < kTemplates; ++t) {
    const Relation& rel = *s->relations[t % s->relations.size()];
    s->hists.push_back(BuildTrained(
        rel, kBuckets,
        MakeQueries(rel, kTrainQueries,
                    sthist::DeriveSeed(kStateSeed, kTrainRole + t))));
    s->templates.push_back({s->hists.back().get(), &rel, kBuckets});
  }

  const TenantSampler tenants(kTenants, mixed ? kZipf : 0.0,
                              sthist::DeriveSeed(kStateSeed, kZipfRole));
  const size_t readers = mixed ? 1 : kReadThreads;
  for (size_t t = 0; t < readers; ++t) {
    s->read_draws.push_back(
        MakeDraws(kDraws, tenants, kProbeQueries,
                  sthist::DeriveSeed(seed, kReadDrawRole + t)));
  }
  if (mixed) {
    s->feed_draws = MakeDraws(kDraws, tenants, kFeedbackQueries,
                              sthist::DeriveSeed(seed, kFeedDrawRole));
  } else {
    for (const Draw& d : MakeDraws(kLockstepLoops, tenants, kFeedbackQueries,
                                   sthist::DeriveSeed(seed, kLockstepRole))) {
      s->lockstep.push_back(
          {d.tenant, &s->feedback[s->relation_of(d.tenant)][d.query]});
    }
  }
  return s;
}

/// fleet-read-1k's single refiner starts on the one CPU its lock-step
/// phase later runs on (see OneCpu); fleet-mixed-1k's two refiners float.
ServedFleet ServeTemplates(const FleetSetup& s, uint64_t seed, bool mixed,
                           bool traced, Report* report) {
  sthist::FleetConfig config;
  config.refiners = mixed ? 2 : 1;
  config.seed = seed;
  std::optional<OneCpu> one_cpu;
  if (!mixed) one_cpu.emplace();
  return BuildFleet(s.templates, kTenants, config, traced, report);
}

/// Everything one pass over a fleet measured.
struct FleetRun {
  double seconds = 0.0;
  std::optional<ReadPath> reads;
  ErrorSum err;
  LockstepResult lockstep;  // fleet-read-1k's feedback phase.
  // fleet-mixed-1k's open loop.
  uint64_t submitted = 0;
  uint64_t refused = 0;  // Non-OK status, or shed.
  uint64_t applied_in_window = 0;
  uint64_t drain_failed = 0;
  uint64_t unsampled = 0;  // Sampled submissions the busy sampler skipped.
  Samples submit_ns;
  Samples late_ns;
  Samples visible_ns;
  double queue_depth_max = 0.0;
  std::vector<std::pair<size_t, std::shared_ptr<const sthist::Histogram>>>
      held;
};

void ReadLoop(const FleetSetup& s, const std::vector<Draw>& draws,
              const std::atomic<bool>& go, const std::atomic<bool>& stop,
              ReadPath* path, ErrorSum* err) {
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  for (size_t i = 0;; ++i) {
    if (i % 64 == 0 && stop.load(std::memory_order_relaxed)) return;
    const Draw& d = draws[i % draws.size()];
    const Probes& p = s.probes[s.relation_of(d.tenant)];
    const double est =
        path->Read(d.tenant, p.queries[d.query], i % kTimedEvery == 0);
    if (est >= 0.0) err->Add(est, p, d.query);
  }
}

void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 100000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 60000));
    } else {
      std::this_thread::yield();
    }
  }
}

/// Hands sampled submissions from the feeder to the sampler thread.
class PendingQueue {
 public:
  struct Item {
    uint32_t tenant;
    int64_t due_ns;
  };
  /// Queues `item` unless kMaxPending items already wait: a sample queued
  /// behind a backlog would time the sampler, not the fleet.
  bool Push(Item item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (items_.size() >= kMaxPending) return false;
      items_.push_back(item);
    }
    cv_.notify_one();
    return true;
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  bool Pop(Item* item) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *item = items_.front();
    items_.pop_front();
    return true;
  }

 private:
  static constexpr size_t kMaxPending = 4;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Item> items_;  // Guarded by mutex_.
  bool closed_ = false;     // Guarded by mutex_.
};

/// The timed reads of either workload, plus fleet-mixed-1k's feeder and
/// sampler when `mixed`.
FleetRun RunPass(const FleetSetup& s, const ServedFleet& served,
                 double seconds, bool mixed, bool traced) {
  sthist::ServiceFleet& fleet = *served.fleet;
  FleetRun run;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::optional<ReadPath>> paths(s.read_draws.size());
  std::vector<ErrorSum> errs(s.read_draws.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < s.read_draws.size(); ++t) {
    paths[t].emplace(fleet, served.keys, traced);
    threads.emplace_back(ReadLoop, std::cref(s), std::cref(s.read_draws[t]),
                         std::cref(go), std::cref(stop), &*paths[t], &errs[t]);
  }

  PendingQueue pending;
  int64_t start = 0;
  int64_t deadline = 0;
  if (mixed) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const double period_ns = 1e9 / kFeedRate;
      for (uint64_t k = 0;; ++k) {
        const int64_t due =
            start + static_cast<int64_t>(static_cast<double>(k) * period_ns);
        if (due >= deadline) break;
        WaitUntil(due);
        const int64_t begin = NowNs();
        const Draw& d = s.feed_draws[k % s.feed_draws.size()];
        sthist::StatusOr<sthist::FleetFeedbackOutcome> outcome =
            fleet.SubmitFeedback(served.keys[d.tenant],
                                 s.feedback[s.relation_of(d.tenant)][d.query]);
        run.submit_ns.Add(static_cast<double>(NowNs() - begin));
        run.late_ns.Add(static_cast<double>(begin - due));
        ++run.submitted;
        const bool accepted =
            outcome.ok() && *outcome == sthist::FleetFeedbackOutcome::kAccepted;
        if (!accepted) {
          ++run.refused;
        } else if (k % kVisibleEvery == 0 &&
                   !pending.Push({d.tenant, due})) {
          ++run.unsampled;
        }
      }
    });
    threads.emplace_back([&] {
      PendingQueue::Item item;
      size_t drained = 0;
      while (pending.Pop(&item)) {
        const std::string& key = served.keys[item.tenant];
        const bool ok = fleet.DrainTenant(key).ok();
        const int64_t end = NowNs();
        if (!ok) {
          ++run.drain_failed;
          continue;
        }
        run.visible_ns.Add(static_cast<double>(end - item.due_ns));
        if (drained++ % 16 == 0 && run.held.size() < kHeldSnapshots) {
          run.held.emplace_back(item.tenant, fleet.Snapshot(key));
        }
      }
    });
  }

  start = NowNs();
  deadline = start + static_cast<int64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  if (traced && mixed) {
    run.queue_depth_max = WatchQueueDepth(fleet, deadline);
  } else {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(deadline)));
  }
  run.applied_in_window = fleet.stats().feedback_applied;
  stop.store(true, std::memory_order_relaxed);
  const size_t workers = s.read_draws.size() + (mixed ? 1 : 0);
  for (size_t t = 0; t < workers; ++t) threads[t].join();
  run.seconds = SecondsSince(start);
  pending.Close();
  for (size_t t = workers; t < threads.size(); ++t) threads[t].join();

  for (size_t t = 0; t < paths.size(); ++t) {
    if (t == 0) {
      run.reads.emplace(std::move(*paths[0]));
    } else {
      run.reads->Merge(*paths[t]);
    }
    run.err.Add(errs[t]);
  }
  return run;
}

/// Snapshots of kHeldSnapshots tenants spread over the fleet.
void HoldSnapshots(const ServedFleet& served, FleetRun* run) {
  for (size_t i = 0; i < kHeldSnapshots; ++i) {
    const size_t t = HeldTenant(i);
    run->held.emplace_back(t, served.fleet->Snapshot(served.keys[t]));
  }
}

/// fleet-read-1k's feedback phase: snapshots held from before it, checked
/// in CheckFleet after it has published over them.
void RunFeedbackPhase(const FleetSetup& s, const ServedFleet& served,
                      bool traced, FleetRun* run, Report* report) {
  HoldSnapshots(served, run);
  // Its reads go through their own path, to stay out of the timed figures.
  ReadPath reads(*served.fleet, served.keys, traced);
  {
    OneCpu one_cpu;
    run->lockstep = RunLockstep(*served.fleet, served.keys, reads, s.lockstep,
                                0.0, kLockstepLoops, 0);
  }
  size_t superseded = 0;
  for (const auto& [tenant, snap] : run->held) {
    superseded += served.fleet->Snapshot(served.keys[tenant]) != snap;
  }
  report->Note("held snapshots published over by the feedback phase: " +
               std::to_string(superseded) + " of " +
               std::to_string(run->held.size()));
  run->reads->Merge(reads);
}

/// Fleet-wide checks after a pass: the held snapshots and, at rest, one of
/// each tenant HoldSnapshots picks. Leaves the fleet drained.
void CheckFleet(const FleetSetup& s, const ServedFleet& served, FleetRun* run,
                Report* report) {
  sthist::ServiceFleet& fleet = *served.fleet;
  if (!fleet.Drain().ok()) report->Fail("fleet Drain failed");
  HoldSnapshots(served, run);
  for (const auto& [tenant, snap] : run->held) {
    if (snap == nullptr) {
      report->Fail("no snapshot held for " + served.keys[tenant]);
      continue;
    }
    CheckIndexAgrees(*snap, s.probes[s.relation_of(tenant)].queries,
                     served.keys[tenant], report);
  }
  CheckFeedbackAccounting(fleet, run->submitted + run->lockstep.attempted,
                          report);
}

std::unique_ptr<FleetSetup> TimedSetups(const Options& o, bool mixed,
                                        ServedFleet* served, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<FleetSetup> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    *served = ServedFleet{};
    setup.reset();
    const int64_t start = NowNs();
    setup = BuildFleetSetup(o.seed, mixed);
    *served = ServeTemplates(*setup, o.seed, mixed, false, report);
    setup_s.push_back(SecondsSince(start));
  }
  report->Set("setup_s", Median(setup_s), "s");
  return setup;
}

void RunFleet(const Options& o, bool mixed, Report* report) {
  if (mixed) {
    report->Note("feeder rate " + std::to_string(kFeedRate) + " items/s");
  }
  if (!o.trace) {
    ServedFleet served;
    std::unique_ptr<FleetSetup> setup = TimedSetups(o, mixed, &served, report);
    FleetRun run = RunPass(*setup, served, o.seconds, mixed, false);
    // The read figures are taken before the feedback phase merges its reads.
    report->Set("read_per_s",
                static_cast<double>(run.reads->reads) / run.seconds, "1/s");
    report->Latency("read", run.reads->latency_ns, "us");
    if (!mixed) {
      RunFeedbackPhase(*setup, served, false, &run, report);
      report->Set("learn_qps",
                  static_cast<double>(run.lockstep.loops) /
                      run.lockstep.seconds,
                  "1/s");
      report->Latency("feedback_visible", run.lockstep.visible_ns, "us");
    } else {
      report->Set("learn_qps",
                  static_cast<double>(run.applied_in_window) / run.seconds,
                  "1/s");
      report->Latency("feedback_visible", run.visible_ns, "us");
    }
    report->Set("nae", run.err.Nae(), "ratio");
    report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
    CheckFleet(*setup, served, &run, report);
    report->attempted =
        run.reads->reads + run.submitted + run.lockstep.attempted;
    report->failed = run.reads->failed + run.refused + run.drain_failed +
                     run.lockstep.failed;
    if (mixed) {
      report->Note("feedback submitted " + std::to_string(run.submitted) +
                   ", shed " + std::to_string(run.refused) +
                   ", visibility samples skipped " +
                   std::to_string(run.unsampled));
    }
    return;
  }

  SpanRecorder recorder;
  SpanRecorder::SetActive(&recorder);
  std::unique_ptr<FleetSetup> setup = BuildFleetSetup(o.seed, mixed);
  ServedFleet plain;
  {
    ScopedSpan span("serve.add_tenants");
    plain = ServeTemplates(*setup, o.seed, mixed, false, report);
  }
  SpanRecorder::SetActive(nullptr);

  // Untraced half: the reference the tracing overhead is measured against.
  FleetRun untraced = RunPass(*setup, plain, o.seconds / 2, mixed, false);
  CheckFleet(*setup, plain, &untraced, report);
  plain = ServedFleet{};

  SpanRecorder::SetActive(&recorder);
  ServedFleet traced = ServeTemplates(*setup, o.seed, mixed, true, report);
  FleetRun run = RunPass(*setup, traced, o.seconds / 2, mixed, true);
  const double traced_read_p50 = Pooled(run.reads->latency_ns).Percentile(0.5);
  if (!mixed) RunFeedbackPhase(*setup, traced, true, &run, report);
  CheckFleet(*setup, traced, &run, report);
  traced.fleet->Stop();
  SpanRecorder::SetActive(nullptr);
  for (const FleetRun* pass : {&untraced, &run}) {
    report->attempted +=
        pass->reads->reads + pass->submitted + pass->lockstep.attempted;
    report->failed += pass->reads->failed + pass->refused +
                      pass->drain_failed + pass->lockstep.failed;
  }

  LayerInputs in;
  in.spans = recorder.Collect();
  in.clusters = setup->clusters();
  in.histogram_metrics = traced.histogram_metrics.get();
  in.fleet = traced.fleet.get();
  in.reads = &*run.reads;
  in.submit_ns = mixed ? run.submit_ns : run.lockstep.submit_ns;
  in.submitted = run.submitted + run.lockstep.attempted;
  in.overhead_frac =
      traced_read_p50 / Pooled(untraced.reads->latency_ns).Percentile(0.5) -
      1.0;
  in.open_loop = mixed;
  in.late_ns = run.late_ns;
  in.queue_depth_max = run.queue_depth_max;
  ReportLayers(in, report);
  if (!o.trace_out.empty() && !recorder.WriteCsv(o.trace_out)) {
    report->Fail("could not write " + o.trace_out);
  }
}

}  // namespace

void RunFleetRead1k(const Options& options, Report* report) {
  RunFleet(options, false, report);
}

void RunFleetMixed1k(const Options& options, Report* report) {
  RunFleet(options, true, report);
}

}  // namespace perfbench
