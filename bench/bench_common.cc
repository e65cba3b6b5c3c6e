#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/thread_pool.h"
#include "eval/table.h"
#include "obs/metrics.h"

namespace sthist::bench {

namespace {

// The process-wide registry every harness records into. Installed by
// ExtractBenchOptions, which every main calls first (directly or through
// GetScale), so all instrumented components land here.
obs::MetricsRegistry& BenchRegistry() {
  static obs::MetricsRegistry registry;
  return registry;
}

// Parses argv[i]'s value (argv[i+1]) as a non-negative integer, exiting
// with a usage error otherwise.
uint64_t ParseCount(const char* flag, const char* value) {
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == nullptr || *end != '\0' || value[0] == '\0') {
    std::fprintf(stderr, "%s expects a non-negative integer, got %s\n", flag,
                 value);
    std::exit(2);
  }
  return static_cast<uint64_t>(parsed);
}

// Escapes a string for embedding in a JSON document.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

BenchOptions ExtractBenchOptions(int* argc, char** argv) {
  obs::SetGlobalMetrics(&BenchRegistry());
  BenchOptions options;
  int write = 1;
  for (int read = 1; read < *argc; ++read) {
    const char* arg = argv[read];
    const bool has_value = read + 1 < *argc;
    if (std::strcmp(arg, "--threads") == 0 && has_value) {
      uint64_t value = ParseCount(arg, argv[++read]);
      if (value == 0) {
        std::fprintf(stderr, "--threads expects a positive integer\n");
        std::exit(2);
      }
      options.threads = static_cast<size_t>(value);
    } else if (std::strcmp(arg, "--metrics-json") == 0 && has_value) {
      options.metrics_json = argv[++read];
    } else {
      argv[write++] = argv[read];  // Not ours; leave for the caller.
    }
  }
  *argc = write;
  return options;
}

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions options = ExtractBenchOptions(&argc, argv);
  if (argc > 1) {
    std::fprintf(stderr,
                 "unknown argument: %s\n"
                 "usage: %s [--threads N] [--metrics-json PATH]\n"
                 "(STHIST_FULL=1 in the environment selects paper scale)\n",
                 argv[1], argv[0]);
    std::exit(2);
  }
  return options;
}

uint64_t ExtractCountFlag(int* argc, char** argv, const char* flag) {
  uint64_t value = 0;
  int write = 1;
  for (int read = 1; read < *argc; ++read) {
    if (std::strcmp(argv[read], flag) == 0 && read + 1 < *argc) {
      value = ParseCount(flag, argv[++read]);
    } else {
      argv[write++] = argv[read];
    }
  }
  *argc = write;
  return value;
}

bool WriteBenchArtifact(
    const BenchOptions& options, const std::string& name,
    const std::vector<std::pair<std::string, double>>& summary) {
  if (options.metrics_json.empty()) return true;
  std::string json = "{\n  \"bench\": \"" + JsonEscape(name) + "\",\n";
  json += "  \"summary\": {";
  for (size_t i = 0; i < summary.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", summary[i].second);
    json += (i == 0 ? "\n" : ",\n");
    json += "    \"" + JsonEscape(summary[i].first) + "\": " + buf;
  }
  json += summary.empty() ? "},\n" : "\n  },\n";
  json += "  \"metrics\": " + obs::GlobalMetrics()->ToJson() + "\n}\n";
  FILE* f = std::fopen(options.metrics_json.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", options.metrics_json.c_str());
    return false;
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_error = std::fclose(f);
  if (written != json.size() || close_error != 0) {
    std::fprintf(stderr, "short write to %s\n", options.metrics_json.c_str());
    return false;
  }
  return true;
}

Scale GetScale(const BenchOptions& options) {
  Scale scale;
  scale.threads = options.threads;
  const char* full = std::getenv("STHIST_FULL");
  if (full != nullptr && full[0] == '1') {
    scale.full = true;
    scale.train_queries = 1000;
    scale.sim_queries = 1000;
    scale.sky_tuples = 1700000;
    scale.heavy_extra_queries = 18000;
    scale.crossnd_cluster_tuples_4d = 90000;
    scale.crossnd_cluster_tuples_5d = 2700000;
    scale.bucket_sweep = {50, 100, 150, 200, 250};
  }
  return scale;
}

namespace {

// Deferred artifact for harnesses that never call WriteBenchArtifact
// themselves (the legacy GetScale(argc, argv) entry point): written at exit
// with an empty summary so --metrics-json works uniformly everywhere.
BenchOptions g_exit_options;   // NOLINT(runtime/global)
std::string g_exit_name;       // NOLINT(runtime/global)

void WriteExitArtifact() {
  (void)WriteBenchArtifact(g_exit_options, g_exit_name, {});
}

}  // namespace

Scale GetScale(int argc, char** argv) {
  if (argc <= 0) return GetScale(BenchOptions{});
  BenchOptions options = ParseBenchOptions(argc, argv);
  if (!options.metrics_json.empty()) {
    g_exit_options = options;
    const char* base = std::strrchr(argv[0], '/');
    g_exit_name = base != nullptr ? base + 1 : argv[0];
    std::atexit(WriteExitArtifact);
  }
  return GetScale(options);
}

GeneratedData BenchCross() {
  // Paper scale (Table 1): 22,000 tuples, runs fast enough everywhere.
  return MakeCross(CrossConfig{});
}

GeneratedData BenchCrossNd(size_t dim, const Scale& scale) {
  CrossConfig config;
  config.dim = dim;
  switch (dim) {
    case 3:
      config.tuples_per_cluster = 3000;  // Table 3: 9,000 total.
      break;
    case 4:
      config.tuples_per_cluster = scale.crossnd_cluster_tuples_4d;
      break;
    default:
      config.tuples_per_cluster = scale.crossnd_cluster_tuples_5d;
      break;
  }
  config.noise_tuples = config.tuples_per_cluster * dim / 10;
  config.seed = 100 + dim;
  return MakeCross(config);
}

GeneratedData BenchGauss(const Scale& scale) {
  GaussConfig config;
  config.cluster_tuples = scale.gauss_cluster_tuples;
  config.noise_tuples = scale.gauss_noise_tuples;
  return MakeGauss(config);
}

GeneratedData BenchSky(const Scale& scale) {
  SkyConfig config;
  config.tuples = scale.sky_tuples;
  return MakeSky(config);
}

MineClusConfig CrossMineClus() {
  MineClusConfig config;
  config.alpha = 0.05;
  config.width_fraction = 0.05;
  // Favor size over dimensionality: on the higher-dimensional Cross
  // variants, a smaller beta would rank the full-dimensional band-junction
  // artifact above the bands themselves and feed it first.
  config.beta = 0.4;
  return config;
}

MineClusConfig GaussMineClus() {
  MineClusConfig config;
  config.alpha = 0.02;
  config.width_fraction = 0.06;
  return config;
}

MineClusConfig SkyMineClus() {
  MineClusConfig config;
  config.alpha = 0.01;
  config.width_fraction = 0.05;
  return config;
}

void PrintBanner(const std::string& title, const Scale& scale) {
  std::printf("==== %s ====\n", title.c_str());
  std::printf("scale: %s (train=%zu, sim=%zu queries)%s\n",
              scale.full ? "paper (STHIST_FULL=1)" : "bench default",
              scale.train_queries, scale.sim_queries,
              scale.full ? "" : " — set STHIST_FULL=1 for paper scale");
  std::printf("threads: %zu (override with --threads N; results are "
              "identical at any thread count)\n",
              scale.threads == 0 ? DefaultThreadCount() : scale.threads);
  std::printf("paper columns are approximate values digitized from the "
              "figure; compare shapes, not absolutes.\n\n");
}

void RunFigure(Experiment* experiment, const FigureSpec& spec) {
  std::vector<std::string> headers = {"buckets"};
  for (const Series& series : spec.series) {
    headers.push_back(series.name + " NAE");
    if (!series.paper_nae.empty()) {
      headers.push_back(series.name + " (paper)");
    }
  }
  TablePrinter table(headers);

  // Every (bucket count x series) cell is independent; sweep them all
  // concurrently and format afterwards in row-major order.
  std::vector<ExperimentConfig> configs;
  configs.reserve(spec.bucket_counts.size() * spec.series.size());
  for (size_t buckets : spec.bucket_counts) {
    for (const Series& series : spec.series) {
      ExperimentConfig config = spec.base;
      config.buckets = buckets;
      config.initialize = series.initialize;
      config.initializer.reversed = series.reversed;
      configs.push_back(config);
    }
  }
  std::vector<ExperimentResult> results =
      RunSweep(*experiment, configs, spec.threads);

  for (size_t i = 0; i < spec.bucket_counts.size(); ++i) {
    std::vector<std::string> row = {FormatSize(spec.bucket_counts[i])};

    // Position of this bucket count in the paper's sweep, if any.
    size_t paper_index = spec.paper_bucket_counts.size();
    for (size_t j = 0; j < spec.paper_bucket_counts.size(); ++j) {
      if (spec.paper_bucket_counts[j] == spec.bucket_counts[i]) {
        paper_index = j;
        break;
      }
    }

    for (size_t s = 0; s < spec.series.size(); ++s) {
      const Series& series = spec.series[s];
      const ExperimentResult& result = results[i * spec.series.size() + s];
      row.push_back(FormatDouble(result.nae, 3));
      if (!series.paper_nae.empty()) {
        row.push_back(paper_index < series.paper_nae.size()
                          ? FormatDouble(series.paper_nae[paper_index], 3)
                          : "-");
      }
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", spec.title.c_str());
  table.Print();
  std::printf("\n");
}

}  // namespace sthist::bench
