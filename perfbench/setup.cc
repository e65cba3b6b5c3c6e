#include "setup.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "init/initializer.h"

namespace perfbench {

std::unique_ptr<Relation> BuildRelation(
    const std::function<sthist::GeneratedData()>& generate) {
  sthist::GeneratedData generated = [&] {
    ScopedSpan span("data.generate");
    return generate();
  }();
  auto relation = std::make_unique<Relation>(std::move(generated));
  {
    ScopedSpan span("index.kdtree_build");
    relation->executor =
        std::make_unique<sthist::Executor>(relation->generated.data);
  }
  {
    ScopedSpan span("clustering.mineclus");
    relation->clusters =
        sthist::RunMineClus(relation->generated.data,
                            relation->generated.domain,
                            sthist::MineClusConfig{});
  }
  return relation;
}

sthist::Workload MakeQueries(const Relation& relation, size_t n,
                             uint64_t seed) {
  sthist::WorkloadConfig config;
  config.num_queries = n;
  config.volume_fraction = 0.01;
  config.seed = seed;
  return sthist::MakeWorkload(relation.generated.domain, config);
}

std::unique_ptr<sthist::STHoles> BuildTrained(const Relation& relation,
                                              size_t buckets,
                                              const sthist::Workload& train) {
  sthist::STHolesConfig config;
  config.max_buckets = buckets;
  config.metrics = sthist::obs::MetricsRegistry::Disabled();
  auto hist = std::make_unique<sthist::STHoles>(relation.generated.domain,
                                                relation.tuples(), config);
  {
    ScopedSpan span("init.feed");
    sthist::InitializeHistogram(relation.clusters, relation.generated.domain,
                                *relation.executor, sthist::InitializerConfig{},
                                hist.get());
  }
  {
    ScopedSpan span("histogram.train");
    for (const sthist::Box& q : train) hist->Refine(q, *relation.executor);
  }
  return hist;
}

std::unique_ptr<sthist::STHoles> CopyWithRegistry(
    const sthist::STHoles& hist, size_t buckets,
    sthist::obs::MetricsRegistry* registry) {
  sthist::STHolesConfig config;
  config.max_buckets = buckets;
  config.metrics = registry;
  auto copy =
      sthist::STHoles::DeserializeBinary(hist.SerializeBinary(), config);
  return copy.ok() ? std::move(copy).value() : nullptr;
}

Probes MakeProbes(const Relation& relation, sthist::Workload queries) {
  Probes probes;
  const sthist::Box& domain = relation.generated.domain;
  const double volume = domain.Volume();
  probes.truth.reserve(queries.size());
  probes.trivial.reserve(queries.size());
  for (const sthist::Box& q : queries) {
    probes.truth.push_back(relation.executor->Count(q));
    probes.trivial.push_back(relation.tuples() * domain.IntersectionVolume(q) /
                             volume);
  }
  probes.queries = std::move(queries);
  return probes;
}

std::string TenantKey(size_t i) {
  char key[16];
  std::snprintf(key, sizeof(key), "t%04zu", i);
  return key;
}

ServedFleet BuildFleet(const std::vector<Template>& templates, size_t tenants,
                       const sthist::FleetConfig& config, bool traced,
                       Report* report) {
  ServedFleet served;
  if (traced) {
    served.histogram_metrics = std::make_unique<sthist::obs::MetricsRegistry>();
    for (const Template& t : templates) {
      served.oracles.push_back(
          std::make_unique<TracingOracle>(*t.relation->executor));
    }
  }
  served.fleet = std::make_unique<sthist::ServiceFleet>(config);
  for (size_t i = 0; i < tenants; ++i) {
    const size_t t = i % templates.size();
    const Template& tmpl = templates[t];
    std::unique_ptr<sthist::Histogram> hist;
    if (traced) {
      std::unique_ptr<sthist::STHoles> copy = CopyWithRegistry(
          *tmpl.hist, tmpl.buckets, served.histogram_metrics.get());
      if (copy != nullptr) {
        hist = std::make_unique<TracedHistogram>(std::move(copy));
      }
    } else {
      hist = tmpl.hist->Clone();
    }
    const sthist::CardinalityOracle& oracle =
        traced ? static_cast<const sthist::CardinalityOracle&>(
                     *served.oracles[t])
               : *tmpl.relation->executor;
    served.keys.push_back(TenantKey(i));
    if (hist == nullptr) {
      report->Fail("could not copy template " + std::to_string(t));
      continue;
    }
    sthist::Status status =
        served.fleet->AddTenant(served.keys.back(), std::move(hist), oracle);
    if (!status.ok()) {
      report->Fail("AddTenant(" + served.keys.back() +
                   "): " + status.message());
    }
  }
  return served;
}

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench
