#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

// Everything a workload needs before timing starts: relations with their
// oracles and clusters, trained template histograms, query streams with
// exact answers, and fleets built from the templates. Every step records a
// span named after the library layer it calls into.

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clustering/mineclus.h"
#include "data/generators.h"
#include "histogram/stholes.h"
#include "obs/metrics.h"
#include "serve/service_fleet.h"
#include "spans.h"
#include "stats.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace perfbench {

/// Seed of everything that makes up the state under test rather than the
/// traffic: the template histograms' training queries and which fleet
/// tenants are hot. Keeping it fixed makes every --seed draw its traffic
/// from the same system, so runs with different seeds measure the same
/// thing.
inline constexpr uint64_t kStateSeed = 2016;

/// One relation: generated tuples, the exact-count oracle over them (a k-d
/// tree behind sthist::Executor) and their MineClus subspace clusters.
struct Relation {
  sthist::GeneratedData generated;
  std::unique_ptr<sthist::Executor> executor;
  std::vector<sthist::SubspaceCluster> clusters;

  double tuples() const {
    return static_cast<double>(generated.data.size());
  }
};

std::unique_ptr<Relation> BuildRelation(
    const std::function<sthist::GeneratedData()>& generate);

/// `n` hypercube queries of 1% of the domain volume (the paper's default
/// query size) with uniform centers.
sthist::Workload MakeQueries(const Relation& relation, size_t n,
                             uint64_t seed);

/// A MineClus-initialized STHoles with `buckets` buckets, then refined with
/// every query of `train`.
std::unique_ptr<sthist::STHoles> BuildTrained(const Relation& relation,
                                              size_t buckets,
                                              const sthist::Workload& train);

/// Bit-exact copy of `hist` whose metrics go to `registry`.
std::unique_ptr<sthist::STHoles> CopyWithRegistry(
    const sthist::STHoles& hist, size_t buckets,
    sthist::obs::MetricsRegistry* registry);

/// Queries with their exact answers and the answers of the one-bucket
/// histogram H0, the denominator of the paper's normalized error (eq. 10).
struct Probes {
  sthist::Workload queries;
  std::vector<double> truth;
  std::vector<double> trivial;
};
Probes MakeProbes(const Relation& relation, sthist::Workload queries);

/// Sums |estimate - truth| and |H0 - truth|; their ratio is the NAE.
struct ErrorSum {
  double estimate = 0.0;
  double trivial = 0.0;

  void Add(double est, const Probes& probes, size_t i) {
    estimate += std::abs(est - probes.truth[i]);
    trivial += std::abs(probes.trivial[i] - probes.truth[i]);
  }
  void Add(const ErrorSum& other) {
    estimate += other.estimate;
    trivial += other.trivial;
  }
  double Nae() const { return estimate / trivial; }
};

/// A fleet serving copies of template histograms, with what must outlive
/// it declared first.
struct ServedFleet {
  std::unique_ptr<sthist::obs::MetricsRegistry> histogram_metrics;
  std::vector<std::unique_ptr<TracingOracle>> oracles;
  std::unique_ptr<sthist::ServiceFleet> fleet;
  std::vector<std::string> keys;
};

/// One template histogram and the relation it answers for.
struct Template {
  const sthist::STHoles* hist = nullptr;
  const Relation* relation = nullptr;
  size_t buckets = 0;
};

/// Adds `tenants` tenants; tenant i serves a copy of templates[i % size].
/// Traced fleets get copies that report to their own metrics registry,
/// wrapped in TracedHistogram and counting through a TracingOracle. A
/// failed AddTenant fails the report.
ServedFleet BuildFleet(const std::vector<Template>& templates, size_t tenants,
                       const sthist::FleetConfig& config, bool traced,
                       Report* report);

/// Tenant key of tenant i ("t0000", "t0001", ...).
std::string TenantKey(size_t i);

/// Peak resident set size of this process, in MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
