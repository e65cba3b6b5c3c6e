// learn-1t: one MineClus-initialized 250-bucket STHoles over the paper's
// Gauss-6d relation, served as the only tenant of a 1-refiner fleet and
// driven in lock-step (Estimate -> SubmitFeedback -> DrainTenant) by one
// thread. Refinement, and within it merge search, does almost all the work.
//
// The timed phase is a run of episodes. Each starts a fresh fleet on a copy
// of the trained histogram and learns the same kEpisodeQueries queries, so
// every episode must serve the same reads and end in the same snapshot, and
// one serial replay of one episode checks them all. That keeps the check
// cheap while timing goes on long enough to average out the host's
// speed drift, which on a shared VM moves over tens of seconds.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <optional>

#include "core/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kBuckets = 250;
constexpr size_t kTrainQueries = 100;
/// Queries one episode learns; the NAE is taken over them.
constexpr size_t kEpisodeQueries = 500;
/// Episodes a timed phase runs at least, so that the visibility and submit
/// p99 have 10 samples beyond them.
constexpr size_t kMinEpisodes = 2;

constexpr uint64_t kTrainRole = 1;
constexpr uint64_t kStreamRole = 2;

struct LearnSetup {
  std::unique_ptr<Relation> relation;
  std::unique_ptr<sthist::STHoles> trained;
  sthist::Workload stream;  // One episode's queries.
  Probes nae;
  std::vector<LockstepItem> items;

  std::vector<Template> templates() const {
    return {{trained.get(), relation.get(), kBuckets}};
  }
};

std::unique_ptr<LearnSetup> BuildLearnSetup(uint64_t seed) {
  auto s = std::make_unique<LearnSetup>();
  s->relation =
      BuildRelation([] { return sthist::MakeGauss(sthist::GaussConfig{}); });
  s->trained = BuildTrained(
      *s->relation, kBuckets,
      MakeQueries(*s->relation, kTrainQueries,
                  sthist::DeriveSeed(kStateSeed, kTrainRole)));
  s->stream = MakeQueries(*s->relation, kEpisodeQueries,
                          sthist::DeriveSeed(seed, kStreamRole));
  s->nae = MakeProbes(*s->relation, s->stream);
  s->items.reserve(s->stream.size());
  for (const sthist::Box& q : s->stream) s->items.push_back({0, &q});
  return s;
}

sthist::FleetConfig LearnFleetConfig(uint64_t seed) {
  sthist::FleetConfig config;
  config.refiners = 1;
  config.seed = seed;
  return config;
}

double Nae(const LearnSetup& s, const std::vector<double>& served) {
  ErrorSum err;
  for (size_t i = 0; i < served.size(); ++i) {
    err.Add(served[i], s.nae, i);
  }
  return err.Nae();
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Replays what the fleet did, serially and directly on `hist`: read the
/// current snapshot, refine, take the next snapshot. Fails unless every read
/// equals what the fleet served bit for bit; returns the final snapshot's
/// binary form.
std::string Replay(sthist::Histogram& hist,
                   const sthist::CardinalityOracle& oracle,
                   const LearnSetup& s, const std::vector<double>& served,
                   Report* report) {
  std::shared_ptr<const sthist::Histogram> snap = hist.Snapshot();
  for (size_t i = 0; i < served.size(); ++i) {
    RequestScope request(i + 1);
    double estimate = 0.0;
    {
      ScopedSpan span("histogram.estimate_cold");
      estimate = snap->Estimate(s.stream[i]);
    }
    if (!SameBits(estimate, served[i])) {
      char why[160];
      std::snprintf(why, sizeof(why),
                    "learn-1t: replay read %zu = %.17g, fleet served %.17g", i,
                    estimate, served[i]);
      report->Fail(why);
      return {};
    }
    hist.Refine(s.stream[i], oracle);
    snap = hist.Snapshot();
  }
  return snap->SerializeBinary();
}

std::string FleetDigest(const ServedFleet& served) {
  std::shared_ptr<const sthist::Histogram> snap =
      served.fleet->Snapshot(served.keys[0]);
  return snap == nullptr ? std::string() : snap->SerializeBinary();
}

void CheckDigest(const std::string& fleet, const std::string& replay,
                 const std::string& what, Report* report) {
  if (fleet.empty() || fleet != replay) {
    report->Fail("learn-1t: final fleet snapshot differs from " + what);
  }
}

bool SameReads(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), SameBits);
}

/// The episodes of one timed phase. `lockstep` pools their loops, time and
/// samples; its estimates and `digest` are the first episode's, which every
/// later one matched.
struct Episodes {
  size_t count = 0;
  LockstepResult lockstep;
  std::string digest;
  std::optional<ReadPath> reads;
  ServedFleet last;  // The last episode's fleet, still serving.
};

/// Runs episodes, each on a fresh fleet (built and torn down untimed), until
/// `min_episodes` are done and `seconds` of lock-step time have passed, or
/// exactly `episodes` when that is not 0. Fails `report` if an episode
/// serves other reads or ends in another snapshot than the first.
Episodes RunEpisodes(const LearnSetup& s, uint64_t seed, bool traced,
                     double seconds, size_t min_episodes, size_t episodes,
                     Report* report) {
  Episodes out;
  while (episodes == 0 || out.count < episodes) {
    out.last.fleet.reset();  // Before the registry and oracles it uses.
    out.last = BuildFleet(s.templates(), 1, LearnFleetConfig(seed), traced,
                          report);
    if (out.reads) {
      out.reads->Rebind(*out.last.fleet, out.last.keys);
    } else {
      out.reads.emplace(*out.last.fleet, out.last.keys, traced);
    }
    LockstepResult run =
        RunLockstep(*out.last.fleet, out.last.keys, *out.reads, s.items, 0.0,
                    kEpisodeQueries, kEpisodeQueries);
    std::string digest = FleetDigest(out.last);
    if (out.count == 0) {
      out.lockstep = std::move(run);
      out.digest = std::move(digest);
    } else {
      if (!SameReads(run.estimates, out.lockstep.estimates)) {
        report->Fail("learn-1t: episode " + std::to_string(out.count) +
                     " served other reads than episode 0");
      }
      CheckDigest(digest, out.digest, "episode 0's", report);
      out.lockstep.loops += run.loops;
      out.lockstep.seconds += run.seconds;
      out.lockstep.attempted += run.attempted;
      out.lockstep.failed += run.failed;
      out.lockstep.submit_ns.Append(run.submit_ns);
      out.lockstep.visible_ns.Append(run.visible_ns);
    }
    ++out.count;
    if (episodes == 0 && out.count >= min_episodes &&
        out.lockstep.seconds >= seconds) {
      break;
    }
  }
  return out;
}

void RunUntraced(const Options& o, Report* report) {
  // Each set-up builds the fleet a user would serve from; the episodes then
  // build their own.
  std::vector<double> setup_s;
  std::unique_ptr<LearnSetup> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup.reset();
    const int64_t start = NowNs();
    setup = BuildLearnSetup(o.seed);
    const ServedFleet served = BuildFleet(
        setup->templates(), 1, LearnFleetConfig(o.seed), false, report);
    setup_s.push_back(SecondsSince(start));
  }

  const Episodes eps = RunEpisodes(*setup, o.seed, false, o.seconds,
                                   kMinEpisodes, 0, report);
  const LockstepResult& run = eps.lockstep;
  const ReadPath& reads = *eps.reads;

  report->Note("episodes                 " + std::to_string(eps.count) +
               " x " + std::to_string(kEpisodeQueries) + " loops");
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("learn_qps", static_cast<double>(run.loops) / run.seconds,
              "1/s");
  report->Set("read_per_s", static_cast<double>(reads.reads) / run.seconds,
              "1/s");
  report->Latency("read", reads.latency_ns, "us");
  report->Latency("feedback_visible", run.visible_ns, "us");
  report->Set("nae", Nae(*setup, run.estimates), "ratio");
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  report->attempted = reads.reads + run.attempted;
  report->failed = reads.failed + run.failed;

  std::unique_ptr<sthist::Histogram> replay = setup->trained->Clone();
  CheckDigest(eps.digest,
              Replay(*replay, *setup->relation->executor, *setup,
                     run.estimates, report),
              "the serial replay", report);
}

void RunTraced(const Options& o, Report* report) {
  SpanRecorder recorder;
  SpanRecorder::SetActive(&recorder);
  std::unique_ptr<LearnSetup> setup = BuildLearnSetup(o.seed);
  {
    ScopedSpan span("serve.add_tenants");
    const ServedFleet served = BuildFleet(
        setup->templates(), 1, LearnFleetConfig(o.seed), false, report);
  }
  SpanRecorder::SetActive(nullptr);

  // Untraced half: the reference the tracing overhead is measured against.
  Episodes untraced = RunEpisodes(*setup, o.seed, false, o.seconds / 2,
                                  kMinEpisodes, 0, report);
  untraced.last.fleet.reset();

  // Traced half: as many episodes on traced fleets, then the serial replay.
  SpanRecorder::SetActive(&recorder);
  Episodes traced = RunEpisodes(*setup, o.seed, true, 0.0, kMinEpisodes,
                                untraced.count, report);
  const LockstepResult& run = traced.lockstep;
  TracingOracle oracle(*setup->relation->executor);
  std::unique_ptr<sthist::STHoles> copy = CopyWithRegistry(
      *setup->trained, kBuckets, traced.last.histogram_metrics.get());
  std::string replay_digest;
  if (copy == nullptr) {
    report->Fail("learn-1t: could not copy the trained histogram");
  } else {
    TracedHistogram replay(std::move(copy));
    replay_digest = Replay(replay, oracle, *setup, run.estimates, report);
  }
  traced.last.fleet->Stop();
  SpanRecorder::SetActive(nullptr);

  CheckDigest(traced.digest, replay_digest, "the serial replay", report);
  CheckDigest(traced.digest, untraced.digest, "the untraced fleet's", report);
  if (!SameReads(run.estimates, untraced.lockstep.estimates)) {
    report->Fail("learn-1t: traced reads differ from the untraced ones");
  }
  report->attempted = untraced.reads->reads + untraced.lockstep.attempted +
                      traced.reads->reads + run.attempted;
  report->failed = untraced.reads->failed + untraced.lockstep.failed +
                   traced.reads->failed + run.failed;

  LayerInputs in;
  in.spans = recorder.Collect();
  in.clusters = setup->relation->clusters.size();
  // Episodes are bit-identical, so the last one's counters per refine are
  // every episode's.
  in.histogram_metrics = traced.last.histogram_metrics.get();
  in.fleet = traced.last.fleet.get();
  in.reads = &*traced.reads;
  in.submit_ns = run.submit_ns;
  in.submitted = run.attempted;
  in.overhead_frac = run.seconds / untraced.lockstep.seconds - 1.0;
  ReportLayers(in, report);
  if (!o.trace_out.empty() && !recorder.WriteCsv(o.trace_out)) {
    report->Fail("could not write " + o.trace_out);
  }
}

}  // namespace

void RunLearn1t(const Options& options, Report* report) {
  OneCpu one_cpu;  // Client and refiner take turns; see OneCpu.
  if (options.trace) {
    RunTraced(options, report);
  } else {
    RunUntraced(options, report);
  }
}

}  // namespace perfbench
