// sthist command-line tool: generate datasets, run clustering, and run
// initialized/uninitialized histogram experiments without writing C++.
//
//   sthist_cli generate --dataset sky --tuples 100000 --out sky.csv
//   sthist_cli cluster --dataset gauss --alpha 0.02
//   sthist_cli cluster --data my.csv --alpha 0.05 --beta 0.25 --width 0.05
//   sthist_cli experiment --dataset cross --buckets 100 --init
//   sthist_cli experiment --data my.csv --buckets 200 --train 1000 --sim 1000
//   sthist_cli experiment --dataset gauss --fault-rate 0.05 --fault-seed 7
//   sthist_cli sweep --dataset cross --buckets 50,100,250 --seeds 21,22
//       --both --threads 8
//   sthist_cli inspect --dataset cross --buckets 20 --train 100
//
// Exit codes: 0 success; 1 runtime failure (unreadable/malformed input,
// out-of-range value, failed write — the Status message is printed to
// stderr); 2 usage error (unknown subcommand or flag, a flag the command or
// mode does not read, malformed number).

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "clustering/clique.h"
#include "clustering/clusterer.h"
#include "clustering/doc.h"
#include "clustering/mineclus.h"
#include "core/binfmt.h"
#include "core/check.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "data/csv.h"
#include "data/generators.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "histogram/census.h"
#include "histogram/registry.h"
#include "histogram/stholes.h"
#include "histogram/trivial.h"
#include "init/initializer.h"
#include "obs/metrics.h"
#include "serve/service_fleet.h"
#include "serve/snapshot_io.h"
#include "testing/fault_injection.h"
#include "workload/drift.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace {

using namespace sthist;

// Exit codes (documented in README.md).
constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;

// Most threads --refiners, --readers or --threads may start. Those threads
// start before a command prints anything, so an unbounded value could
// exhaust the machine's process ids; a larger value exits 1.
constexpr size_t kMaxThreads = 1024;

// ---------------------------------------------------------------------------
// Tiny flag parser: --name value and boolean --name.
// ---------------------------------------------------------------------------

// Flags whose value is a count: plain decimal digits, fitting size_t. Zero
// keeps whatever meaning the flag gives it (--pace 0, --seed 0, ...).
constexpr std::string_view kCountFlags[] = {
    "buckets", "dim", "drift-phases", "drift-seed", "drift-tuples",
    "fault-reinit-seed", "fault-seed", "max-clusters", "max-dims", "pace",
    "publish-batch", "queries", "queue-cap", "readers", "refiners",
    "reinit-backstop", "reinit-buckets", "reinit-cooldown",
    "reinit-reservoir", "reinit-window", "seed", "sim", "snapshot-every",
    "tenants", "threads", "train", "tuples", "xi"};

// Flags whose value is a finite, non-negative real.
constexpr std::string_view kRealFlags[] = {
    "alpha", "beta", "drift-span", "fault-noise", "fault-rate",
    "fault-reinit-rate", "reinit-rearm", "reinit-trigger", "tau", "volume",
    "width"};

bool IsIn(std::string_view name, std::span<const std::string_view> names) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::optional<size_t> ParseCount(std::string_view text) {
  size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> ParseReal(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value) || value < 0.0) {
    return std::nullopt;
  }
  return value;
}

// Splits "50,100,250" into counts; nullopt if any item is not a count.
std::optional<std::vector<size_t>> ParseCountList(std::string_view text) {
  std::vector<size_t> values;
  while (true) {
    const size_t comma = text.find(',');
    const std::optional<size_t> value = ParseCount(text.substr(0, comma));
    if (!value.has_value()) return std::nullopt;
    values.push_back(*value);
    if (comma == std::string_view::npos) return values;
    text.remove_prefix(comma + 1);
  }
}

// Usage errors exit 2 and print the usage text; every other failure exits 1.
constexpr char kUnknownFlag[] = "unknown flag: ";
constexpr char kMalformedNumber[] = "malformed number: ";

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = Status::InvalidArgument("unexpected argument: " + arg);
        return;
      }
      std::string name = arg.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[name] = argv[++i];
      } else {
        values_[name] = "";  // Boolean flag.
      }
    }
  }

  const Status& error() const { return error_; }

  /// Rejects any flag not in `allowed`, so typos fail loudly instead of
  /// silently falling back to defaults, and any malformed number, so bad
  /// input never aborts or runs with a garbage value (DESIGN.md §8). Flags
  /// in `lists` take comma-separated counts. Every command calls this
  /// before it does any work.
  Status CheckAllowed(std::initializer_list<const char*> allowed,
                      std::initializer_list<const char*> lists = {}) const {
    for (const auto& [name, value] : values_) {
      auto named = [&name](const char* flag) { return name == flag; };
      if (std::none_of(allowed.begin(), allowed.end(), named)) {
        return Status::InvalidArgument(kUnknownFlag + ("--" + name));
      }
      const char* expected = nullptr;
      if (std::any_of(lists.begin(), lists.end(), named)) {
        if (!ParseCountList(value)) expected = "comma-separated integers";
      } else if (IsIn(name, kCountFlags) && !ParseCount(value)) {
        expected = "a non-negative integer";
      } else if (IsIn(name, kRealFlags) && !ParseReal(value)) {
        expected = "a finite non-negative number";
      }
      if (expected != nullptr) {
        return Status::InvalidArgument(kMalformedNumber + ("--" + name) +
                                       " '" + value + "' (expected " +
                                       expected + ")");
      }
    }
    return Status::Ok();
  }

  /// CheckAllowed for one mode of a command, which reads only some of the
  /// command's flags; the error names the mode as well as the flag.
  Status CheckMode(const std::string& mode,
                   std::initializer_list<const char*> allowed) const {
    const Status status = CheckAllowed(allowed);
    if (status.ok()) return status;
    return Status::InvalidArgument(status.message() + " in " + mode);
  }

  /// Rejects a thread-count flag above kMaxThreads, naming the flag and the
  /// limit. Commands call it right after their flag check.
  Status CheckThreadLimit(const char* name) const {
    const size_t value = Size(name, 0);
    if (value <= kMaxThreads) return Status::Ok();
    return StatusF(StatusCode::kInvalidArgument,
                   "--%s %zu is above the limit of %zu threads", name, value,
                   kMaxThreads);
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string Str(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  // The numeric accessors read values CheckAllowed has validated.
  double Num(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::optional<double> value = ParseReal(it->second);
    STHIST_CHECK_MSG(value.has_value(), "--%s is not a validated real",
                     name.c_str());
    return *value;
  }

  size_t Size(const std::string& name, size_t fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::optional<size_t> value = ParseCount(it->second);
    STHIST_CHECK_MSG(value.has_value(), "--%s is not a validated count",
                     name.c_str());
    return *value;
  }

  std::vector<size_t> SizeList(const std::string& name,
                               const std::string& fallback) const {
    const std::optional<std::vector<size_t>> values =
        ParseCountList(Str(name, fallback));
    STHIST_CHECK_MSG(values.has_value(), "--%s is not a validated list",
                     name.c_str());
    return *values;
  }

 private:
  std::map<std::string, std::string> values_;
  Status error_;
};

// Flag groups shared by several subcommands. Every subcommand accepts
// --metrics-json <path>: main() installs a process-wide MetricsRegistry
// before dispatching and exports its JSON snapshot afterwards (DESIGN.md
// §13), so whatever layers the command exercised show up in the file.
#define STHIST_COMMON_FLAGS "metrics-json"
#define STHIST_DATASET_FLAGS "data", "dataset", "tuples", "dim", "seed"
#define STHIST_MINECLUS_FLAGS "alpha", "beta", "width", "max-clusters"
#define STHIST_FAULT_FLAGS "fault-rate", "fault-seed", "fault-noise"
#define STHIST_DRIFT_FLAGS                                             \
  "drift", "drift-phases", "drift-seed", "drift-tuples", "drift-span", \
      "pace"
// The flags every serve-sim mode reads.
#define STHIST_SERVE_FLAGS                                                 \
  STHIST_COMMON_FLAGS, STHIST_MINECLUS_FLAGS, "queries", "buckets", "init", \
      "train", "volume", "queue-cap", "publish-batch"
#define STHIST_REINIT_FLAGS                                              \
  "no-reinit", "reinit-window", "reinit-trigger", "reinit-rearm",        \
      "reinit-cooldown", "reinit-backstop", "reinit-reservoir",          \
      "reinit-buckets", "reinit-sync", "fault-reinit-rate",              \
      "fault-reinit-seed"

// ---------------------------------------------------------------------------
// Dataset resolution: either a named generator or a CSV file.
// ---------------------------------------------------------------------------

StatusOr<GeneratedData> ResolveDataset(const Flags& flags) {
  if (flags.Has("data")) {
    StatusOr<Dataset> data = ReadCsv(flags.Str("data", ""));
    if (!data.ok()) return data.status();
    GeneratedData g{*std::move(data), Box(), {}};
    g.domain = g.data.Bounds();
    if (g.domain.Volume() <= 0.0) {
      return Status::InvalidArgument(
          flags.Str("data", "") +
          ": dataset has zero volume (all tuples equal in some attribute)");
    }
    return g;
  }

  std::string name = flags.Str("dataset", "cross");
  uint64_t seed = flags.Size("seed", 0);
  if (name == "cross" || name == "crossnd") {
    CrossConfig config;
    config.dim = flags.Size("dim", 2);
    config.tuples_per_cluster = flags.Size("tuples", 10000 * config.dim) /
                                std::max<size_t>(config.dim, 1);
    config.noise_tuples = config.tuples_per_cluster * config.dim / 10;
    if (seed != 0) config.seed = seed;
    STHIST_RETURN_IF_ERROR(Validate(config));
    return MakeCross(config);
  }
  if (name == "gauss") {
    GaussConfig config;
    config.dim = flags.Size("dim", 6);
    config.cluster_tuples = flags.Size("tuples", 110000) * 10 / 11;
    config.noise_tuples = flags.Size("tuples", 110000) / 11;
    if (seed != 0) config.seed = seed;
    STHIST_RETURN_IF_ERROR(Validate(config));
    return MakeGauss(config);
  }
  if (name == "sky") {
    SkyConfig config;
    config.tuples = flags.Size("tuples", 200000);
    if (seed != 0) config.seed = seed;
    STHIST_RETURN_IF_ERROR(Validate(config));
    return MakeSky(config);
  }
  if (name == "particle") {
    ParticleConfig config;
    size_t tuples = flags.Size("tuples", 100000);
    config.cluster_tuples = tuples * 4 / 5;
    config.noise_tuples = tuples / 5;
    if (seed != 0) config.seed = seed;
    STHIST_RETURN_IF_ERROR(Validate(config));
    return MakeParticle(config);
  }
  return Status::NotFound("unknown dataset: " + name +
                          " (try cross, gauss, sky, particle, or "
                          "--data file.csv)");
}

FaultConfig FaultsFromFlags(const Flags& flags) {
  FaultConfig faults;
  faults.rate = flags.Num("fault-rate", 0.0);
  faults.seed = flags.Size("fault-seed", 99);
  faults.noise_factor = flags.Num("fault-noise", faults.noise_factor);
  return faults;
}

// Applies --fault-data: corrupts ~rate of the tuples, then repairs the
// dataset the way a service ingesting it would (drop non-finite tuples).
Status MaybeInjectDataFaults(const Flags& flags, GeneratedData* g) {
  if (!flags.Has("fault-data")) return Status::Ok();
  FaultConfig faults = FaultsFromFlags(flags);
  if (faults.rate <= 0.0) {
    return Status::InvalidArgument("--fault-data needs --fault-rate > 0");
  }
  g->data = CorruptDataset(g->data, g->domain, faults);
  Status validation = g->data.Validate();
  std::fprintf(stderr, "fault-data: %s\n", validation.ToString().c_str());
  size_t dropped = 0;
  g->data = DropNonFiniteTuples(g->data, &dropped);
  std::fprintf(stderr, "fault-data: dropped %zu corrupted tuples, %zu kept\n",
               dropped, g->data.size());
  if (g->data.size() == 0) {
    return Status::InvalidArgument("all tuples corrupted away");
  }
  return Status::Ok();
}

MineClusConfig MineClusFromFlags(const Flags& flags) {
  MineClusConfig config;
  config.alpha = flags.Num("alpha", config.alpha);
  config.beta = flags.Num("beta", config.beta);
  config.width_fraction = flags.Num("width", config.width_fraction);
  config.max_clusters = flags.Size("max-clusters", config.max_clusters);
  return config;
}

// A config's Validate() failure restated as an error in the flags that set
// the config, so the user learns which flag to fix.
Status FlagError(const char* flags, const Status& status) {
  if (status.ok()) return status;
  return Status::InvalidArgument(std::string(flags) + ": " + status.message());
}

// The flags behind the range-checked window settings of MineClus and DOC.
constexpr char kWindowFlagNames[] = "--alpha/--beta/--width";

// Range checks on the flags every training command reads, run before any
// work: the MineClus settings (ranges in Validate(MineClusConfig)) and
// --volume.
Status CheckTrainingFlags(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(
      FlagError(kWindowFlagNames, Validate(MineClusFromFlags(flags))));
  const double volume = flags.Num("volume", 0.01);
  if (volume <= 0.0 || volume > 1.0) {
    return StatusF(StatusCode::kInvalidArgument,
                   "--volume must be in (0,1], got %g", volume);
  }
  return Status::Ok();
}

// Builds the clusterer selected by --clusterer (mineclus | clique | doc).
// Each clusterer accepts only the flags it reads.
StatusOr<std::unique_ptr<SubspaceClusterer>> ClustererFromFlags(
    const Flags& flags) {
  std::string name = flags.Str("clusterer", "mineclus");
  const std::string mode = "cluster --clusterer " + name;
  if (name == "mineclus") {
    STHIST_RETURN_IF_ERROR(flags.CheckMode(
        mode, {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, "clusterer",
               STHIST_MINECLUS_FLAGS}));
    const MineClusConfig config = MineClusFromFlags(flags);
    STHIST_RETURN_IF_ERROR(FlagError(kWindowFlagNames, Validate(config)));
    return std::unique_ptr<SubspaceClusterer>(
        std::make_unique<MineClusClusterer>(config));
  }
  if (name == "clique") {
    STHIST_RETURN_IF_ERROR(flags.CheckMode(
        mode, {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, "clusterer", "xi",
               "tau", "max-dims"}));
    CliqueConfig config;
    config.xi = flags.Size("xi", config.xi);
    config.tau = flags.Num("tau", config.tau);
    config.max_dims = flags.Size("max-dims", config.max_dims);
    STHIST_RETURN_IF_ERROR(
        FlagError("--xi/--tau/--max-dims", Validate(config)));
    return std::unique_ptr<SubspaceClusterer>(
        std::make_unique<CliqueClusterer>(config));
  }
  if (name == "doc") {
    STHIST_RETURN_IF_ERROR(flags.CheckMode(
        mode, {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, "clusterer",
               "alpha", "beta", "width"}));
    DocConfig config;
    config.alpha = flags.Num("alpha", config.alpha);
    config.beta = flags.Num("beta", config.beta);
    config.width_fraction = flags.Num("width", config.width_fraction);
    STHIST_RETURN_IF_ERROR(FlagError(kWindowFlagNames, Validate(config)));
    return std::unique_ptr<SubspaceClusterer>(
        std::make_unique<DocClusterer>(config));
  }
  return Status::NotFound("unknown clusterer: " + name +
                          " (try mineclus, clique, doc)");
}

// Folds the little-endian bytes of `value` into an FNV-1a digest.
void FoldDigest(uint64_t value, uint64_t* digest) {
  for (int byte = 0; byte < 8; ++byte) {
    *digest ^= (value >> (8 * byte)) & 0xffu;
    *digest *= 1099511628211ULL;
  }
}

constexpr uint64_t kDigestSeed = 1469598103934665603ULL;  // FNV offset basis.

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

Status RunGenerate(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(
      flags.CheckAllowed({STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, "out"}));
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  std::string out = flags.Str("out", "");
  if (out.empty()) {
    return Status::InvalidArgument("generate requires --out <file.csv>");
  }
  STHIST_RETURN_IF_ERROR(WriteCsv(g->data, out));
  std::printf("wrote %zu tuples x %zu dims to %s\n", g->data.size(),
              g->data.dim(), out.c_str());
  return Status::Ok();
}

Status RunCluster(const Flags& flags) {
  StatusOr<std::unique_ptr<SubspaceClusterer>> clusterer =
      ClustererFromFlags(flags);
  if (!clusterer.ok()) return clusterer.status();
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  std::vector<SubspaceCluster> clusters =
      (*clusterer)->Cluster(g->data, g->domain);
  std::printf("clusterer: %s\n", (*clusterer)->name().c_str());

  TablePrinter table({"cluster", "relevant dims", "members", "score"});
  for (size_t i = 0; i < clusters.size(); ++i) {
    std::string dims;
    for (size_t d : clusters[i].relevant_dims) {
      if (!dims.empty()) dims += ",";
      dims += std::to_string(d);
    }
    table.AddRow({"C" + std::to_string(i), dims,
                  FormatSize(clusters[i].members.size()),
                  FormatDouble(clusters[i].score, 0)});
  }
  table.Print();
  std::printf("%zu clusters over %zu tuples\n", clusters.size(),
              g->data.size());
  return Status::Ok();
}

/// Validates --estimator against the registry so a typo is a flag error
/// naming the registered estimators, not a crash deep in the runner.
StatusOr<std::string> EstimatorFromFlags(const Flags& flags) {
  std::string name = flags.Str("estimator", "stholes");
  for (const std::string& known : RegisteredNames()) {
    if (known == name) return name;
  }
  std::string known_list;
  for (const std::string& known : RegisteredNames()) {
    if (!known_list.empty()) known_list += ", ";
    known_list += known;
  }
  return StatusF(StatusCode::kNotFound,
                 "--estimator %s is not registered (choose from: %s)",
                 name.c_str(), known_list.c_str());
}

// The ExperimentConfig fields experiment and sweep both read, checked before
// any work; the callers set the budget and the init variant.
StatusOr<ExperimentConfig> ExperimentConfigFromFlags(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(CheckTrainingFlags(flags));
  ExperimentConfig config;
  StatusOr<std::string> estimator = EstimatorFromFlags(flags);
  if (!estimator.ok()) return estimator.status();
  config.estimator = *std::move(estimator);
  config.train_queries = flags.Size("train", 400);
  config.sim_queries = flags.Size("sim", 400);
  if (config.sim_queries == 0) {
    return Status::InvalidArgument("--sim must be > 0");
  }
  config.volume_fraction = flags.Num("volume", 0.01);
  config.initializer.reversed = flags.Has("reversed");
  config.learn_during_sim = !flags.Has("freeze");
  config.mineclus = MineClusFromFlags(flags);
  config.faults = FaultsFromFlags(flags);
  if (flags.Has("data-centers")) config.centers = CenterDistribution::kData;
  if (config.faults.rate > 1.0) {
    return StatusF(StatusCode::kInvalidArgument,
                   "--fault-rate must be in [0,1], got %g",
                   config.faults.rate);
  }
  return config;
}

// Asks the registry whether the estimator builds at `buckets`, so a budget
// its family rejects (0 for mhist, sampling or kde) is a flag error before
// the run instead of a failed CHECK inside it.
Status CheckBudget(const Experiment& experiment, const std::string& estimator,
                   size_t buckets) {
  HistogramConfig hc;
  hc.domain = experiment.domain();
  hc.total_tuples = experiment.total_tuples();
  hc.data = &experiment.data();
  hc.buckets = buckets;
  return FlagError("--buckets", MakeHistogram(estimator, hc).status());
}

Status RunExperiment(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckAllowed(
      {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, STHIST_MINECLUS_FLAGS,
       STHIST_FAULT_FLAGS, "fault-data", "buckets", "train", "sim", "volume",
       "init", "reversed", "freeze", "data-centers", "estimator"}));
  StatusOr<ExperimentConfig> config = ExperimentConfigFromFlags(flags);
  if (!config.ok()) return config.status();
  config->buckets = flags.Size("buckets", 100);
  config->initialize = flags.Has("init");
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  STHIST_RETURN_IF_ERROR(MaybeInjectDataFaults(flags, &*g));
  Experiment experiment(*std::move(g));
  STHIST_RETURN_IF_ERROR(
      CheckBudget(experiment, config->estimator, config->buckets));

  ExperimentResult result = experiment.Run(*config);
  TablePrinter table({"metric", "value"});
  table.AddRow({"MAE", FormatDouble(result.mae, 3)});
  table.AddRow({"trivial MAE", FormatDouble(result.trivial_mae, 3)});
  table.AddRow({"NAE", FormatDouble(result.nae, 4)});
  table.AddRow({"final buckets", FormatSize(result.final_buckets)});
  table.AddRow({"subspace buckets", FormatSize(result.subspace_buckets)});
  table.AddRow({"clusters found", FormatSize(result.clusters_found)});
  table.AddRow({"clusters fed", FormatSize(result.clusters_fed)});
  table.AddRow({"clustering s", FormatDouble(result.clustering_seconds, 2)});
  table.AddRow({"train s", FormatDouble(result.train_seconds, 2)});
  table.AddRow({"sim s", FormatDouble(result.sim_seconds, 2)});
  if (config->faults.rate > 0.0 || result.robustness.total() > 0) {
    table.AddRow({"faults injected", FormatSize(result.faults_injected)});
    table.AddRow(
        {"rejected queries", FormatSize(result.robustness.rejected_queries)});
    table.AddRow({"sanitized queries",
                  FormatSize(result.robustness.sanitized_queries)});
    table.AddRow(
        {"clamped feedback", FormatSize(result.robustness.clamped_feedback)});
    table.AddRow(
        {"repaired buckets", FormatSize(result.robustness.repaired_buckets)});
  }
  table.Print();
  return Status::Ok();
}

// Runs a grid of experiment cells (bucket budgets x workload seeds x
// variants) concurrently via RunSweep and prints one row per cell. The
// variants are uninitialized by default, initialized with --init, or both
// with --both.
Status RunSweepCommand(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckAllowed(
      {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, STHIST_MINECLUS_FLAGS,
       STHIST_FAULT_FLAGS, "fault-data", "buckets", "seeds", "train", "sim",
       "volume", "init", "both", "reversed", "freeze", "data-centers",
       "threads", "estimator"},
      /*lists=*/{"buckets", "seeds"}));
  STHIST_RETURN_IF_ERROR(flags.CheckThreadLimit("threads"));
  StatusOr<ExperimentConfig> base = ExperimentConfigFromFlags(flags);
  if (!base.ok()) return base.status();
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  STHIST_RETURN_IF_ERROR(MaybeInjectDataFaults(flags, &*g));
  Experiment experiment(*std::move(g));

  const std::vector<size_t> buckets = flags.SizeList("buckets", "50,100,250");
  const std::vector<size_t> seeds = flags.SizeList("seeds", "21");
  for (size_t b : buckets) {
    STHIST_RETURN_IF_ERROR(CheckBudget(experiment, base->estimator, b));
  }

  size_t threads = flags.Size("threads", 0);  // 0 = hardware concurrency.

  std::vector<bool> variants;
  if (flags.Has("both")) {
    variants = {false, true};
  } else {
    variants = {flags.Has("init")};
  }

  std::vector<ExperimentConfig> configs;
  for (size_t seed : seeds) {
    for (size_t b : buckets) {
      for (bool init : variants) {
        ExperimentConfig config = *base;
        config.workload_seed = seed;
        config.buckets = b;
        config.initialize = init;
        configs.push_back(config);
      }
    }
  }

  auto start = std::chrono::steady_clock::now();
  std::vector<ExperimentResult> results =
      RunSweep(experiment, configs, threads);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  TablePrinter table({"seed", "buckets", "init", "NAE", "final buckets",
                      "subspace", "clusters fed"});
  for (size_t i = 0; i < configs.size(); ++i) {
    table.AddRow({FormatSize(configs[i].workload_seed),
                  FormatSize(configs[i].buckets),
                  configs[i].initialize ? "yes" : "no",
                  FormatDouble(results[i].nae, 4),
                  FormatSize(results[i].final_buckets),
                  FormatSize(results[i].subspace_buckets),
                  FormatSize(results[i].clusters_fed)});
  }
  table.Print();
  std::printf("%zu cells in %.2f s (threads=%zu)\n", configs.size(), seconds,
              threads == 0 ? DefaultThreadCount() : threads);
  return Status::Ok();
}

Status RunInspect(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckAllowed(
      {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, STHIST_MINECLUS_FLAGS,
       "buckets", "train", "volume", "init"}));
  STHIST_RETURN_IF_ERROR(CheckTrainingFlags(flags));
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  Experiment experiment(*std::move(g));

  STHolesConfig hc;
  hc.max_buckets = flags.Size("buckets", 20);
  STHoles hist(experiment.domain(), experiment.total_tuples(), hc);

  if (flags.Has("init")) {
    InitializeHistogram(experiment.Clusters(MineClusFromFlags(flags)),
                        experiment.domain(), experiment.executor(),
                        InitializerConfig{}, &hist);
  }
  ExperimentConfig wc_config;
  wc_config.train_queries = flags.Size("train", 100);
  wc_config.sim_queries = 1;
  wc_config.volume_fraction = flags.Num("volume", 0.01);
  auto [train, sim] = experiment.MakeWorkloads(wc_config);
  for (const Box& q : train) hist.Refine(q, experiment.executor());

  std::fputs(FormatBucketTree(hist).c_str(), stdout);
  CensusResult census = CensusSubspaceBuckets(hist);
  std::printf("%zu buckets, %zu subspace\n", hist.bucket_count(),
              census.subspace_buckets);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// snapshot save/load/verify: versioned binary snapshot files (DESIGN.md §17).
// ---------------------------------------------------------------------------

// `snapshot save`: train an estimator (--estimator, default stholes) exactly
// like `inspect` does, then persist its versioned binary blob ("STHB",
// "STHK", ...) atomically. The printed digest is FNV-1a over the file bytes,
// so two saves agree iff the files do.
Status RunSnapshotSave(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckAllowed(
      {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, STHIST_MINECLUS_FLAGS,
       "buckets", "train", "volume", "init", "out", "estimator"}));
  STHIST_RETURN_IF_ERROR(CheckTrainingFlags(flags));
  std::string out = flags.Str("out", "");
  if (out.empty()) {
    return Status::InvalidArgument("snapshot save requires --out <file>");
  }
  StatusOr<std::string> estimator = EstimatorFromFlags(flags);
  if (!estimator.ok()) return estimator.status();
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  Experiment experiment(*std::move(g));

  HistogramConfig hc;
  hc.domain = experiment.domain();
  hc.total_tuples = experiment.total_tuples();
  hc.data = &experiment.data();
  hc.buckets = flags.Size("buckets", 100);
  StatusOr<std::unique_ptr<Histogram>> made = MakeHistogram(*estimator, hc);
  if (!made.ok()) return FlagError("--buckets", made.status());
  Histogram& hist = **made;
  if (flags.Has("init")) {
    InitializeHistogram(experiment.Clusters(MineClusFromFlags(flags)),
                        experiment.domain(), experiment.executor(),
                        InitializerConfig{}, &hist);
  }
  ExperimentConfig wc_config;
  wc_config.train_queries = flags.Size("train", 200);
  wc_config.sim_queries = 1;
  wc_config.volume_fraction = flags.Num("volume", 0.01);
  auto [train, sim] = experiment.MakeWorkloads(wc_config);
  for (const Box& q : train) hist.Refine(q, experiment.executor());

  const std::string blob = hist.SerializeBinary();
  if (blob.empty()) {
    return StatusF(StatusCode::kInvalidArgument,
                   "estimator %s does not support binary snapshots",
                   estimator->c_str());
  }
  STHIST_RETURN_IF_ERROR(snapshot_io::WriteFileAtomic(out, blob));
  std::printf("wrote %s: %s, %zu buckets, %zu bytes, digest %016llx\n",
              out.c_str(), estimator->c_str(), hist.bucket_count(),
              blob.size(),
              static_cast<unsigned long long>(binfmt::Fnv1a(blob)));
  return Status::Ok();
}

// `snapshot load` / `snapshot verify`: decode a snapshot file through every
// layer it contains, dispatching on the magic ("STHB"/"STHK" histogram blob,
// "STHF" serving container). Any framing or payload
// violation surfaces as the decoder's Status (exit 1) — this is the
// command-line face of the fail-closed contract the fuzz tests hold. load
// prints a table of the contents; verify prints one OK line for scripts.
Status RunSnapshotLoad(const Flags& flags, bool verify_only) {
  const std::string command =
      std::string("snapshot ") + (verify_only ? "verify" : "load");
  STHIST_RETURN_IF_ERROR(
      flags.CheckMode(command, {STHIST_COMMON_FLAGS, "in"}));
  std::string path = flags.Str("in", "");
  if (path.empty()) {
    return Status::InvalidArgument(command + " requires --in <file>");
  }
  StatusOr<std::string> bytes = snapshot_io::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() < 4) {
    return StatusF(StatusCode::kInvalidArgument,
                   "%s: %zu bytes is too short to hold a snapshot magic",
                   path.c_str(), bytes->size());
  }
  // Decoding never refines, so the default bucket budget is never used.
  // Histogram blobs are self-describing (registry.h): RestoreHistogram
  // dispatches on the blob's own magic, so the file works regardless of
  // which estimator wrote it.
  const HistogramConfig hc;
  const unsigned long long file_digest =
      static_cast<unsigned long long>(binfmt::Fnv1a(*bytes));

  std::string kind(bytes->data(), 4);
  if (kind == "STHB" || kind == "STHK") {
    const std::string estimator(EstimatorNameForBlob(*bytes));
    StatusOr<std::unique_ptr<Histogram>> hist = RestoreHistogram(*bytes, hc);
    if (!hist.ok()) return hist.status();
    if (verify_only) {
      std::printf("snapshot OK: %s histogram, %zu buckets, digest %016llx\n",
                  estimator.c_str(), (*hist)->bucket_count(), file_digest);
      return Status::Ok();
    }
    TablePrinter table({"field", "value"});
    table.AddRow({"kind", "histogram (" + kind + ")"});
    table.AddRow({"estimator", estimator});
    table.AddRow({"buckets", FormatSize((*hist)->bucket_count())});
    table.AddRow({"file bytes", FormatSize(bytes->size())});
    table.Print();
  } else if (kind == "STHF") {
    StatusOr<snapshot_io::FleetSnapshot> snap =
        snapshot_io::DecodeFleetSnapshot(*bytes);
    if (!snap.ok()) return snap.status();
    size_t total_buckets = 0;
    uint64_t total_feedback = 0;
    for (const snapshot_io::FleetTenant& tenant : snap->tenants) {
      total_feedback += tenant.applied_feedback;
      StatusOr<std::unique_ptr<Histogram>> hist =
          RestoreHistogram(tenant.histogram, hc);
      if (!hist.ok()) {
        return StatusF(StatusCode::kInvalidArgument, "tenant '%s': %s",
                       tenant.key.c_str(), hist.status().message().c_str());
      }
      total_buckets += (*hist)->bucket_count();
    }
    if (verify_only) {
      std::printf(
          "snapshot OK: fleet, %zu tenants, %zu buckets, %llu feedback "
          "applied, digest %016llx\n",
          snap->tenants.size(), total_buckets,
          static_cast<unsigned long long>(total_feedback), file_digest);
      return Status::Ok();
    }
    TablePrinter table({"field", "value"});
    table.AddRow({"kind", "fleet (STHF)"});
    table.AddRow({"tenants", FormatSize(snap->tenants.size())});
    table.AddRow({"total buckets", FormatSize(total_buckets)});
    table.AddRow({"feedback applied",
                  FormatSize(static_cast<size_t>(total_feedback))});
    table.AddRow({"seed", FormatSize(static_cast<size_t>(snap->seed))});
    table.AddRow({"file bytes", FormatSize(bytes->size())});
    table.Print();
  } else {
    return StatusF(StatusCode::kInvalidArgument,
                   "%s: unrecognized snapshot magic \"%.4s\"", path.c_str(),
                   bytes->data());
  }
  std::printf("digest %016llx\n", file_digest);
  return Status::Ok();
}

// serve-sim's serving cell: a one-tenant ServiceFleet under kServeTenant
// with one refiner, a 4096-item queue and 64-item publish batches unless
// --queue-cap / --publish-batch say otherwise. Its counters land in the
// process-wide registry, so the final /metrics dump is one document.
constexpr char kServeTenant[] = "serve";

StatusOr<FleetConfig> ServeFleetConfig(const Flags& flags) {
  FleetConfig fc;
  fc.refiners = 1;
  fc.queue_capacity = flags.Size("queue-cap", 4096);
  fc.publish_batch = flags.Size("publish-batch", fc.publish_batch);
  if (fc.queue_capacity == 0 || fc.publish_batch == 0) {
    return Status::InvalidArgument(
        "--queue-cap and --publish-batch must be > 0");
  }
  fc.metrics = obs::GlobalMetrics();
  return fc;
}

// Drift-mode serving simulation (`serve-sim --drift <scenario>`): a
// deterministic replay driver streams a DriftSchedule's phases through the
// serving cell (estimate, then feedback) while optional read-only probe
// threads hammer the published snapshot, and — unless --no-reinit — the
// stagnation detector + reservoir re-initialization recover from the drift
// online (DESIGN.md §14). The driver Drains at phase boundaries and on
// queue-full, so the run is replayable: same flags, same trigger/swap
// sequence.
Status RunServeSimDrift(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckMode(
      "serve-sim drift mode",
      {STHIST_SERVE_FLAGS, "dim", "readers", STHIST_DRIFT_FLAGS,
       STHIST_FAULT_FLAGS, STHIST_REINIT_FLAGS}));
  STHIST_RETURN_IF_ERROR(flags.CheckThreadLimit("readers"));
  STHIST_RETURN_IF_ERROR(CheckTrainingFlags(flags));
  StatusOr<DriftScenario> scenario =
      ParseDriftScenario(flags.Str("drift", "cross-move"));
  if (!scenario.ok()) return scenario.status();

  DriftConfig dc;
  dc.scenario = *scenario;
  dc.phases = flags.Size("drift-phases", 4);
  dc.seed = flags.Size("drift-seed", 17);
  dc.dim = flags.Size("dim", 2);
  dc.tuples = flags.Size("drift-tuples", 22000);
  dc.move_span = flags.Num("drift-span", 0.6);

  const size_t total_queries = flags.Size("queries", 20000);
  if (total_queries == 0) {
    return Status::InvalidArgument("--queries must be > 0");
  }
  WorkloadConfig wc;
  wc.num_queries =
      std::max<size_t>(total_queries / std::max<size_t>(dc.phases, 1), 1);
  wc.volume_fraction = flags.Num("volume", 0.01);

  StatusOr<DriftSchedule> schedule = MakeDriftSchedule(dc, wc);
  if (!schedule.ok()) return schedule.status();
  PhasedOracle oracle(*schedule);
  const Box& domain = schedule->domain();

  // The tenant starts on a histogram trained for phase 0 (with --init, the
  // paper's MineClus-seeded initialization over the phase-0 snapshot), so
  // the drift — not a cold start — is what degrades it.
  STHolesConfig hc;
  hc.max_buckets = flags.Size("buckets", 100);
  auto hist = std::make_unique<STHoles>(domain, oracle.Count(domain), hc);
  if (flags.Has("init")) {
    std::vector<SubspaceCluster> clusters = RunMineClus(
        schedule->phase(0).data.data, domain, MineClusFromFlags(flags));
    InitializeHistogram(clusters, domain, oracle, InitializerConfig{},
                        hist.get());
  }
  WorkloadConfig train_wc = wc;
  train_wc.num_queries = flags.Size("train", 200);
  train_wc.centers = CenterDistribution::kData;
  train_wc.seed = DeriveSeed(dc.seed, 0x7A);
  StatusOr<Workload> train =
      MakeWorkloadChecked(domain, train_wc, &schedule->phase(0).data.data);
  if (!train.ok()) return train.status();
  for (const Box& q : *train) hist->Refine(q, oracle);

  StatusOr<FleetConfig> fc = ServeFleetConfig(flags);
  if (!fc.ok()) return fc.status();
  fc->faults = FaultsFromFlags(flags);

  TenantOptions options;
  ReinitConfig& reinit = options.reinit;
  reinit.enabled = !flags.Has("no-reinit");
  reinit.domain = domain;
  reinit.detector.window = flags.Size("reinit-window", 128);
  reinit.detector.trigger_nae =
      flags.Num("reinit-trigger", reinit.detector.trigger_nae);
  reinit.detector.rearm_nae =
      flags.Num("reinit-rearm", reinit.detector.rearm_nae);
  reinit.detector.cooldown = flags.Size("reinit-cooldown", 256);
  reinit.detector.retrigger_backstop =
      flags.Size("reinit-backstop", reinit.detector.retrigger_backstop);
  reinit.reservoir.capacity =
      flags.Size("reinit-reservoir", reinit.reservoir.capacity);
  reinit.mineclus = MineClusFromFlags(flags);
  reinit.max_buckets = flags.Size("reinit-buckets", hc.max_buckets);
  reinit.background = !flags.Has("reinit-sync");
  reinit.rebuild_faults.rate = flags.Num("fault-reinit-rate", 0.0);
  reinit.rebuild_faults.seed =
      flags.Size("fault-reinit-seed", 99);
  ServiceFleet fleet(*fc);
  STHIST_RETURN_IF_ERROR(
      fleet.AddTenant(kServeTenant, std::move(hist), oracle, options));

  // Read-only probe threads: they measure that the snapshot stays servable
  // through rebuilds but never submit feedback, so they cannot perturb the
  // deterministic replay below.
  const size_t readers = flags.Size("readers", 2);
  std::atomic<bool> probes_stop{false};
  std::vector<std::thread> probes;
  probes.reserve(readers);
  std::atomic<double> sink{0.0};
  for (size_t r = 0; r < readers; ++r) {
    probes.emplace_back([&, r] {
      const Workload& queries = schedule->phase(0).queries;
      double local = 0.0;
      for (size_t i = 0; !probes_stop.load(std::memory_order_relaxed); ++i) {
        local += *fleet.Estimate(kServeTenant,
                                 queries[(r * 31 + i) % queries.size()]);
      }
      sink.fetch_add(local);
    });
  }

  // The replay driver: one thread, FIFO feedback, Drain at every phase
  // boundary (the oracle must not change phase under queued feedback) and
  // on backpressure.
  // Pacing: Drain every `pace` submissions. A free-running driver outraces
  // the refiner by a whole queue, so every served estimate in a phase would
  // come from the previous phase's histogram no matter how well re-init
  // works; draining at a bounded cadence emulates a production arrival rate
  // the refiner can keep up with, without giving up replayability.
  const size_t pace = std::max<size_t>(flags.Size("pace", fc->publish_batch),
                                       1);
  struct PhaseRow {
    double mae = 0.0;
    double trivial_mae = 0.0;
    size_t queries = 0;
    TenantStats at_end;
  };
  std::vector<PhaseRow> rows(schedule->phase_count());
  auto t0 = std::chrono::steady_clock::now();
  size_t since_drain = 0;
  for (size_t p = 0; p < schedule->phase_count(); ++p) {
    oracle.SetPhase(p);
    TrivialHistogram trivial(domain, oracle.Count(domain));
    PhaseRow& row = rows[p];
    for (const Box& q : schedule->phase(p).queries) {
      const double est = *fleet.Estimate(kServeTenant, q);
      const double actual = oracle.Count(q);
      row.mae += std::abs(est - actual);
      row.trivial_mae += std::abs(trivial.Estimate(q) - actual);
      ++row.queries;
      if (*fleet.SubmitFeedback(kServeTenant, q, est) ==
          FleetFeedbackOutcome::kQueueFull) {
        STHIST_RETURN_IF_ERROR(fleet.Drain());
        (void)fleet.SubmitFeedback(kServeTenant, q, est);
      }
      if (++since_drain >= pace) {
        since_drain = 0;
        STHIST_RETURN_IF_ERROR(fleet.Drain());
      }
    }
    STHIST_RETURN_IF_ERROR(fleet.Drain());
    row.at_end = *fleet.tenant_stats(kServeTenant);
  }
  double drive_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  probes_stop.store(true);
  for (std::thread& t : probes) t.join();
  fleet.Stop();

  std::printf("drift scenario: %s (%zu phases, %zu queries/phase)\n",
              DriftScenarioName(schedule->scenario()),
              schedule->phase_count(), wc.num_queries);
  TablePrinter phases({"phase", "queries", "MAE", "NAE", "NAE(roll)",
                       "triggers", "swaps"});
  for (size_t p = 0; p < rows.size(); ++p) {
    const PhaseRow& row = rows[p];
    const double n = static_cast<double>(std::max<size_t>(row.queries, 1));
    const double nae =
        row.trivial_mae > 0.0 ? row.mae / row.trivial_mae : 0.0;
    phases.AddRow({FormatSize(p), FormatSize(row.queries),
                   FormatDouble(row.mae / n, 1), FormatDouble(nae, 4),
                   FormatDouble(row.at_end.rolling_nae, 4),
                   FormatSize(row.at_end.reinit_triggers),
                   FormatSize(row.at_end.reinit_swaps_completed)});
  }
  phases.Print();

  const FleetStats stats = fleet.stats();
  const TenantStats tenant = *fleet.tenant_stats(kServeTenant);
  TablePrinter table({"metric", "value"});
  table.AddRow({"probe readers", FormatSize(readers)});
  table.AddRow({"reads served", FormatSize(stats.reads_served)});
  table.AddRow({"feedback accepted", FormatSize(stats.feedback_accepted)});
  table.AddRow({"feedback dropped", FormatSize(stats.feedback_dropped())});
  table.AddRow({"feedback applied", FormatSize(stats.feedback_applied)});
  table.AddRow({"snapshot epoch", FormatSize(stats.publishes)});
  table.AddRow({"reinit triggers", FormatSize(tenant.reinit_triggers)});
  table.AddRow(
      {"swaps completed", FormatSize(tenant.reinit_swaps_completed)});
  table.AddRow({"swaps aborted", FormatSize(tenant.reinit_swaps_aborted)});
  table.AddRow({"replayed feedback", FormatSize(tenant.reinit_replayed)});
  table.AddRow({"reservoir size", FormatSize(tenant.reservoir_size)});
  table.AddRow({"rolling NAE", FormatDouble(tenant.rolling_nae, 4)});
  table.AddRow({"drive s", FormatDouble(drive_seconds, 2)});
  table.Print();

  std::shared_ptr<const Histogram> snapshot = fleet.Snapshot(kServeTenant);
  std::printf("final snapshot: %zu buckets, robustness events %zu\n",
              snapshot->bucket_count(), snapshot->robustness().total());
  std::printf("--- metrics ---\n%s", obs::GlobalMetrics()->ToText().c_str());
  return Status::Ok();
}

// Deterministic serve-sim replay (`serve-sim --pace P`, `--snapshot FILE`,
// `--snapshot-every N`, `--restore FILE`): a single driver thread streams the
// simulation workload through the serving cell in FIFO order, draining every
// `pace` submissions, so the final snapshot — and the "serve digest" printed
// at the end — is a pure function of the flags. `--snapshot-every N` cuts a
// Drain-barriered one-tenant STHF snapshot every N queries; `--restore FILE`
// starts from such a snapshot instead of pre-training and skips the queries
// its watermark says were already applied. Because refinement consumes only
// the executed queries (never the served estimates), a restored run replays
// to the bit-identical digest of the uninterrupted run — the warm-restart
// contract CI's crash-recovery smoke and tests/snapshot_persist_test.cc
// hold. The restored run must use the same dataset/workload/bucket flags as
// the saved one; only --restore and the snapshot flags may differ.
Status RunServeSimReplay(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckMode(
      "serve-sim replay mode",
      {STHIST_SERVE_FLAGS, STHIST_DATASET_FLAGS, "pace", "snapshot",
       "snapshot-every", "restore"}));
  STHIST_RETURN_IF_ERROR(CheckTrainingFlags(flags));
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  Experiment experiment(*std::move(g));

  const size_t total_queries = flags.Size("queries", 20000);
  if (total_queries == 0) {
    return Status::InvalidArgument("--queries must be > 0");
  }

  STHolesConfig hc;
  hc.max_buckets = flags.Size("buckets", 100);
  std::unique_ptr<Histogram> hist;
  size_t skip = 0;  // Queries already baked into the restored histogram.
  if (flags.Has("restore")) {
    const std::string from = flags.Str("restore", "");
    StatusOr<std::string> bytes = snapshot_io::ReadFile(from);
    if (!bytes.ok()) return bytes.status();
    StatusOr<snapshot_io::FleetSnapshot> snap =
        snapshot_io::DecodeFleetSnapshot(*bytes);
    if (!snap.ok()) return snap.status();
    if (snap->tenants.size() != 1) {
      return StatusF(StatusCode::kInvalidArgument,
                     "%s holds %zu tenants; serve-sim restores a one-tenant "
                     "snapshot",
                     from.c_str(), snap->tenants.size());
    }
    const snapshot_io::FleetTenant& tenant = snap->tenants.front();
    // Registry dispatch on the blob's own magic: the replay restores
    // whichever estimator family the snapshot was saved from.
    HistogramConfig rc;
    rc.buckets = hc.max_buckets;
    StatusOr<std::unique_ptr<Histogram>> restored =
        RestoreHistogram(tenant.histogram, rc);
    if (!restored.ok()) return restored.status();
    hist = *std::move(restored);
    skip = static_cast<size_t>(tenant.applied_feedback);
    std::fprintf(stderr,
                 "restored %s (%s): %zu buckets, resuming after %zu queries\n",
                 from.c_str(), tenant.estimator.c_str(), hist->bucket_count(),
                 skip);
  } else {
    hist = std::make_unique<STHoles>(experiment.domain(),
                                     experiment.total_tuples(), hc);
    if (flags.Has("init")) {
      InitializeHistogram(experiment.Clusters(MineClusFromFlags(flags)),
                          experiment.domain(), experiment.executor(),
                          InitializerConfig{}, hist.get());
    }
  }

  // Both runs build identical workloads; the restored one just skips the
  // pre-train refines (they are part of the snapshot) and the first `skip`
  // simulation queries (the watermark says the refiner already applied them).
  ExperimentConfig wc_config;
  wc_config.train_queries = flags.Size("train", 200);
  wc_config.sim_queries = total_queries;
  wc_config.volume_fraction = flags.Num("volume", 0.01);
  auto [train, sim] = experiment.MakeWorkloads(wc_config);
  if (!flags.Has("restore")) {
    for (const Box& q : train) hist->Refine(q, experiment.executor());
  }
  if (skip > sim.size()) {
    return StatusF(StatusCode::kInvalidArgument,
                   "snapshot watermark %zu exceeds --queries %zu "
                   "(was the snapshot saved by a longer run?)",
                   skip, sim.size());
  }

  StatusOr<FleetConfig> fc = ServeFleetConfig(flags);
  if (!fc.ok()) return fc.status();
  ServiceFleet fleet(*fc);
  TenantOptions options;
  options.restored_feedback = skip;
  STHIST_RETURN_IF_ERROR(fleet.AddTenant(kServeTenant, std::move(hist),
                                         experiment.executor(), options));

  const size_t pace = std::max<size_t>(flags.Size("pace", 1), 1);
  const size_t snapshot_every = flags.Size("snapshot-every", 0);
  const std::string snapshot_path = flags.Str("snapshot", "serve.snap");
  if (snapshot_every > 0 && !flags.Has("snapshot")) {
    return Status::InvalidArgument("--snapshot-every needs --snapshot <file>");
  }

  auto t0 = std::chrono::steady_clock::now();
  double sink = 0.0;
  size_t saves = 0;
  for (size_t i = skip; i < sim.size(); ++i) {
    const Box& q = sim[i];
    sink += *fleet.Estimate(kServeTenant, q);
    if (*fleet.SubmitFeedback(kServeTenant, q) ==
        FleetFeedbackOutcome::kQueueFull) {
      // Drain-and-resubmit instead of shedding: the replay must apply every
      // query or the watermark would no longer count queries.
      STHIST_RETURN_IF_ERROR(fleet.Drain());
      (void)fleet.SubmitFeedback(kServeTenant, q);
    }
    if ((i + 1 - skip) % pace == 0) {
      STHIST_RETURN_IF_ERROR(fleet.Drain());
    }
    if (snapshot_every > 0 && (i + 1) % snapshot_every == 0) {
      STHIST_RETURN_IF_ERROR(fleet.Drain());
      STHIST_RETURN_IF_ERROR(fleet.SaveSnapshot(snapshot_path));
      ++saves;
    }
  }
  STHIST_RETURN_IF_ERROR(fleet.Drain());
  if (flags.Has("snapshot")) {
    STHIST_RETURN_IF_ERROR(fleet.SaveSnapshot(snapshot_path));
    ++saves;
  }
  double drive_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  fleet.Stop();

  const FleetStats stats = fleet.stats();
  TablePrinter table({"metric", "value"});
  table.AddRow({"queries replayed", FormatSize(sim.size() - skip)});
  table.AddRow({"queries skipped", FormatSize(skip)});
  table.AddRow({"feedback applied", FormatSize(stats.feedback_applied)});
  table.AddRow({"snapshot epoch", FormatSize(stats.publishes)});
  table.AddRow({"snapshot saves", FormatSize(saves)});
  table.AddRow({"drive s", FormatDouble(drive_seconds, 2)});
  table.Print();

  // The determinism digest: FNV-1a over the final snapshot's estimates on
  // the full simulation workload (skipped prefix included, so interrupted
  // and uninterrupted runs fold the same probes).
  std::shared_ptr<const Histogram> snapshot = fleet.Snapshot(kServeTenant);
  uint64_t digest = kDigestSeed;
  for (const Box& probe : sim) {
    FoldDigest(std::bit_cast<uint64_t>(snapshot->Estimate(probe)), &digest);
  }
  std::printf("final snapshot: %zu buckets\n", snapshot->bucket_count());
  std::printf("serve digest: %016llx\n",
              static_cast<unsigned long long>(digest));
  std::printf("--- metrics ---\n%s", obs::GlobalMetrics()->ToText().c_str());
  return Status::Ok();
}

// Simulates production serving: R reader threads issue estimates against
// the published snapshot while every executed query's feedback streams back
// through the serving cell's bounded queue into its single refiner. Prints
// the fleet and tenant counters plus read throughput. --drift selects the
// drift mode and --pace or a snapshot flag the replay mode; each mode
// accepts exactly the flags it reads.
Status RunServeSim(const Flags& flags) {
  if (flags.Has("drift")) return RunServeSimDrift(flags);
  if (flags.Has("pace") || flags.Has("snapshot") ||
      flags.Has("snapshot-every") || flags.Has("restore")) {
    return RunServeSimReplay(flags);
  }
  STHIST_RETURN_IF_ERROR(flags.CheckMode(
      "serve-sim concurrent mode",
      {STHIST_SERVE_FLAGS, STHIST_DATASET_FLAGS, "readers",
       STHIST_FAULT_FLAGS}));
  STHIST_RETURN_IF_ERROR(flags.CheckThreadLimit("readers"));
  STHIST_RETURN_IF_ERROR(CheckTrainingFlags(flags));
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  Experiment experiment(*std::move(g));

  const size_t readers = flags.Size("readers", 4);
  const size_t total_queries = flags.Size("queries", 20000);
  if (readers == 0 || total_queries == 0) {
    return Status::InvalidArgument("--readers and --queries must be > 0");
  }

  // Pre-train the histogram the tenant starts from.
  STHolesConfig hc;
  hc.max_buckets = flags.Size("buckets", 100);
  auto hist = std::make_unique<STHoles>(experiment.domain(),
                                        experiment.total_tuples(), hc);
  if (flags.Has("init")) {
    InitializeHistogram(experiment.Clusters(MineClusFromFlags(flags)),
                        experiment.domain(), experiment.executor(),
                        InitializerConfig{}, hist.get());
  }
  ExperimentConfig wc_config;
  wc_config.train_queries = flags.Size("train", 200);
  wc_config.sim_queries = std::max<size_t>(total_queries / readers, 1);
  wc_config.volume_fraction = flags.Num("volume", 0.01);
  auto [train, sim] = experiment.MakeWorkloads(wc_config);
  for (const Box& q : train) hist->Refine(q, experiment.executor());

  StatusOr<FleetConfig> fc = ServeFleetConfig(flags);
  if (!fc.ok()) return fc.status();
  // --fault-* applies to the serving loop too: the refiner's oracle answers
  // flow through a deterministic FaultyOracle. Readers never consult the
  // oracle.
  fc->faults = FaultsFromFlags(flags);
  ServiceFleet fleet(*fc);
  STHIST_RETURN_IF_ERROR(
      fleet.AddTenant(kServeTenant, std::move(hist), experiment.executor()));

  // Readers: estimate, then feed the executed query back — the full online
  // loop, except reads never wait for the refiner.
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(readers);
  std::atomic<double> sink{0.0};
  const size_t per_reader = std::max<size_t>(total_queries / readers, 1);
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      while (!start.load()) std::this_thread::yield();
      double local = 0.0;
      for (size_t i = 0; i < per_reader; ++i) {
        const Box& q = sim[(r * 17 + i) % sim.size()];
        local += *fleet.Estimate(kServeTenant, q);
        (void)fleet.SubmitFeedback(kServeTenant, q);
      }
      sink.fetch_add(local);
    });
  }
  auto t0 = std::chrono::steady_clock::now();
  start.store(true);
  for (std::thread& t : threads) t.join();
  double read_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  fleet.Stop();  // Drain the backlog and publish the final snapshot.
  double total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const FleetStats stats = fleet.stats();
  const TenantStats tenant = *fleet.tenant_stats(kServeTenant);
  double publish_max = 0.0;
  double publish_mean = 0.0;
  for (const auto& latency : obs::GlobalMetrics()->Snapshot().latencies) {
    if (latency.name == "serve.fleet.publish_seconds" && latency.count > 0) {
      publish_max = latency.max_seconds;
      publish_mean =
          latency.sum_seconds / static_cast<double>(latency.count);
    }
  }
  TablePrinter table({"metric", "value"});
  table.AddRow({"reader threads", FormatSize(readers)});
  table.AddRow({"reads served", FormatSize(stats.reads_served)});
  table.AddRow(
      {"reads/s", FormatDouble(static_cast<double>(stats.reads_served) /
                                   read_seconds,
                               0)});
  table.AddRow({"feedback accepted", FormatSize(stats.feedback_accepted)});
  table.AddRow({"feedback dropped", FormatSize(stats.feedback_dropped())});
  table.AddRow({"feedback applied", FormatSize(stats.feedback_applied)});
  table.AddRow({"snapshot epoch", FormatSize(stats.publishes)});
  table.AddRow({"final staleness", FormatSize(tenant.staleness)});
  table.AddRow({"mean publish ms", FormatDouble(publish_mean * 1e3, 2)});
  table.AddRow({"max publish ms", FormatDouble(publish_max * 1e3, 2)});
  table.AddRow({"drain+total s", FormatDouble(total_seconds, 2)});
  table.Print();

  std::shared_ptr<const Histogram> snapshot = fleet.Snapshot(kServeTenant);
  std::printf("final snapshot: %zu buckets, robustness events %zu\n",
              snapshot->bucket_count(), snapshot->robustness().total());

  // The /metrics-style dump: every layer the simulation touched, one line
  // per metric (DESIGN.md §13).
  std::printf("--- metrics ---\n%s", obs::GlobalMetrics()->ToText().c_str());
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// fleet-sim: sharded multi-tenant serving through a shared refiner pool.
// ---------------------------------------------------------------------------

Status RunFleetSim(const Flags& flags) {
  // --restore hands the fleet off from an "STHF" snapshot: tenant count,
  // keys, seed, and per-tenant histograms all come from the file (so the
  // digest of a `--queries 0` restore matches the digest the saving run
  // printed), and the driver is skipped, so restore mode reads neither
  // --tenants/--seed nor the driver's --buckets/--pace. The keys must be
  // fleet-sim's own tenant_<index> keys — the index recovers which data
  // variant the tenant serves.
  const bool restoring = flags.Has("restore");
  if (restoring) {
    STHIST_RETURN_IF_ERROR(flags.CheckMode(
        "fleet-sim restore mode",
        {STHIST_COMMON_FLAGS, "refiners", "queries", "readers", "queue-cap",
         "publish-batch", "snapshot", "restore"}));
  } else {
    STHIST_RETURN_IF_ERROR(flags.CheckAllowed(
        {STHIST_COMMON_FLAGS, "tenants", "refiners", "queries", "buckets",
         "readers", "pace", "seed", "queue-cap", "publish-batch",
         "snapshot"}));
  }
  STHIST_RETURN_IF_ERROR(flags.CheckThreadLimit("refiners"));
  STHIST_RETURN_IF_ERROR(flags.CheckThreadLimit("readers"));

  size_t tenants = flags.Size("tenants", 16);
  const size_t per_tenant = flags.Size("queries", 64);
  const size_t buckets = flags.Size("buckets", 24);
  const size_t readers = flags.Size("readers", 0);
  const size_t pace = flags.Size("pace", 0);
  uint64_t seed = flags.Size("seed", 1);

  snapshot_io::FleetSnapshot restored;
  if (restoring) {
    StatusOr<std::string> bytes =
        snapshot_io::ReadFile(flags.Str("restore", ""));
    if (!bytes.ok()) return bytes.status();
    StatusOr<snapshot_io::FleetSnapshot> snap =
        snapshot_io::DecodeFleetSnapshot(*bytes);
    if (!snap.ok()) return snap.status();
    restored = *std::move(snap);
    tenants = restored.tenants.size();
    seed = restored.seed;
    std::fprintf(stderr, "restored %s: %zu tenants, seed %llu\n",
                 flags.Str("restore", "").c_str(), tenants,
                 static_cast<unsigned long long>(seed));
  }
  if (tenants == 0 || buckets == 0 || (per_tenant == 0 && !restoring)) {
    return Status::InvalidArgument(
        "--tenants, --queries, and --buckets must be > 0");
  }

  FleetConfig fc;
  fc.refiners = flags.Size("refiners", fc.refiners);
  fc.queue_capacity = flags.Size("queue-cap", fc.queue_capacity);
  fc.publish_batch = flags.Size("publish-batch", fc.publish_batch);
  fc.seed = seed;
  fc.metrics = obs::GlobalMetrics();
  if (fc.refiners == 0 || fc.queue_capacity == 0 || fc.publish_batch == 0) {
    return Status::InvalidArgument(
        "--refiners, --queue-cap, and --publish-batch must be > 0");
  }

  // Shared data variants: tenants alternate over two small cross datasets —
  // a fleet of many histograms over few underlying tables, the multi-tenant
  // shape DESIGN.md §16 targets. Dataset seeds derive from --seed so the
  // whole simulation is one seed away from reproducible.
  struct Variant {
    explicit Variant(GeneratedData generated) : g(std::move(generated)) {}
    GeneratedData g;
    std::unique_ptr<Executor> executor;
  };
  std::vector<std::unique_ptr<Variant>> variants;
  for (size_t v = 0; v < std::min<size_t>(tenants, 2); ++v) {
    CrossConfig config;
    config.tuples_per_cluster = 600 - 200 * v;
    config.noise_tuples = config.tuples_per_cluster / 5;
    config.seed = DeriveSeed(seed, 101 + v);
    STHIST_RETURN_IF_ERROR(Validate(config));
    auto variant = std::make_unique<Variant>(MakeCross(config));
    variant->executor = std::make_unique<Executor>(variant->g.data);
    variants.push_back(std::move(variant));
  }

  ServiceFleet fleet(fc);
  std::vector<std::string> keys;
  std::vector<Workload> streams;
  keys.reserve(tenants);
  streams.reserve(tenants);
  for (size_t t = 0; t < tenants; ++t) {
    size_t variant_index = t;
    STHolesConfig hc;
    hc.max_buckets = buckets;
    std::unique_ptr<Histogram> hist;
    TenantOptions options;
    if (restoring) {
      const snapshot_io::FleetTenant& tenant = restored.tenants[t];
      options.restored_feedback = static_cast<size_t>(tenant.applied_feedback);
      const std::string& key = tenant.key;
      keys.push_back(key);
      const size_t underscore = key.rfind('_');
      char* end = nullptr;
      variant_index = underscore == std::string::npos
                          ? 0
                          : std::strtoul(key.c_str() + underscore + 1, &end,
                                         10);
      if (underscore == std::string::npos || end == nullptr || *end != '\0') {
        return StatusF(StatusCode::kInvalidArgument,
                       "tenant key '%s' is not a fleet-sim tenant_<index> "
                       "key; cannot map it to a data variant",
                       key.c_str());
      }
      // Self-describing tenant blobs: the registry restores whichever
      // estimator family each tenant was saved from.
      HistogramConfig rc;
      rc.buckets = buckets;
      StatusOr<std::unique_ptr<Histogram>> decoded =
          RestoreHistogram(tenant.histogram, rc);
      if (!decoded.ok()) return decoded.status();
      hist = *std::move(decoded);
    } else {
      keys.push_back("tenant_" + std::to_string(t));
      Variant& v = *variants[t % variants.size()];
      hist = std::make_unique<STHoles>(
          v.g.domain, static_cast<double>(v.g.data.size()), hc);
    }
    Variant& v = *variants[variant_index % variants.size()];
    STHIST_RETURN_IF_ERROR(
        fleet.AddTenant(keys.back(), std::move(hist), *v.executor, options));
    // Each tenant's feedback stream is seeded from its fleet identity:
    // pure in (--seed, key), so the streams — and with --pace 1 the final
    // snapshots — replay bit-identically at any --refiners.
    WorkloadConfig wc;
    wc.num_queries = per_tenant;
    wc.volume_fraction = 0.01;
    wc.seed = fleet.TenantId(keys.back());
    streams.push_back(MakeWorkload(v.g.domain, wc));
  }

  // Optional background readers: pure snapshot traffic across the fleet
  // while the driver below writes. CI's determinism smoke runs --readers 0;
  // interactive runs use readers to put load on the shared-lock map path.
  std::atomic<bool> readers_stop{false};
  std::vector<std::thread> reader_threads;
  reader_threads.reserve(readers);
  for (size_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      size_t i = 0;
      while (!readers_stop.load(std::memory_order_relaxed)) {
        size_t t = (r * 7 + i) % tenants;
        (void)fleet.Estimate(keys[t], streams[t][i % streams[t].size()]);
        ++i;
      }
    });
  }

  // Deterministic driver: tenant-major round-robin, estimate + feed back.
  // --pace P drains the whole fleet every P submissions; --pace 1 is the
  // fully serialized replay the determinism smoke diffs.
  auto t0 = std::chrono::steady_clock::now();
  double sink = 0.0;
  size_t submitted = 0;
  size_t shed = 0;
  // A restored fleet serves the handed-off histograms as-is: the driver is
  // skipped so the digest below can be diffed against the one the saving
  // run printed (same --queries, zero new feedback).
  for (size_t i = 0; !restoring && i < per_tenant; ++i) {
    for (size_t t = 0; t < tenants; ++t) {
      const Box& q = streams[t][i];
      StatusOr<double> est = fleet.Estimate(keys[t], q);
      if (!est.ok()) return est.status();
      sink += *est;
      StatusOr<FleetFeedbackOutcome> outcome = fleet.SubmitFeedback(keys[t], q);
      if (!outcome.ok()) return outcome.status();
      if (*outcome != FleetFeedbackOutcome::kAccepted) ++shed;
      ++submitted;
      if (pace != 0 && submitted % pace == 0) {
        STHIST_RETURN_IF_ERROR(fleet.Drain());
      }
    }
  }
  STHIST_RETURN_IF_ERROR(fleet.Drain());
  if (flags.Has("snapshot")) {
    const std::string path = flags.Str("snapshot", "");
    if (path.empty()) return Status::InvalidArgument("--snapshot needs a path");
    STHIST_RETURN_IF_ERROR(fleet.SaveSnapshot(path));
    std::fprintf(stderr, "saved fleet snapshot to %s\n", path.c_str());
  }
  double drive_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  readers_stop.store(true);
  for (std::thread& rt : reader_threads) rt.join();
  fleet.Stop();

  // Determinism digest: FNV-1a over every tenant's identity and its final
  // snapshot's probe estimates (the tenant's own stream), in sorted key
  // order. Identical digests across runs/refiner counts == identical
  // published histograms, bit for bit.
  uint64_t digest = kDigestSeed;
  std::vector<std::string> sorted_keys = fleet.TenantKeys();
  for (const std::string& key : sorted_keys) {
    FoldDigest(fleet.TenantId(key), &digest);
    std::shared_ptr<const Histogram> snap = fleet.Snapshot(key);
    if (snap == nullptr) return Status::NotFound("lost snapshot: " + key);
    size_t t = 0;
    while (t < tenants && keys[t] != key) ++t;
    for (const Box& probe : streams[t]) {
      FoldDigest(std::bit_cast<uint64_t>(snap->Estimate(probe)), &digest);
    }
  }

  FleetStats stats = fleet.stats();
  TablePrinter table({"metric", "value"});
  table.AddRow({"tenants", FormatSize(stats.tenants)});
  table.AddRow({"refiners", FormatSize(fc.refiners)});
  table.AddRow({"reader threads", FormatSize(readers)});
  table.AddRow({"reads served", FormatSize(stats.reads_served)});
  table.AddRow({"feedback accepted", FormatSize(stats.feedback_accepted)});
  table.AddRow({"feedback shed", FormatSize(stats.feedback_dropped())});
  table.AddRow({"feedback applied", FormatSize(stats.feedback_applied)});
  table.AddRow({"publishes", FormatSize(stats.publishes)});
  table.AddRow({"shard runs", FormatSize(stats.shard_runs)});
  table.AddRow({"driver shed", FormatSize(shed)});
  table.AddRow({"drive s", FormatDouble(drive_seconds, 2)});
  table.AddRow(
      {"mean estimate",
       FormatDouble(
           submitted == 0 ? 0.0 : sink / static_cast<double>(submitted), 1)});
  table.Print();

  std::printf("fleet digest: %016llx\n",
              static_cast<unsigned long long>(digest));
  std::printf("--- metrics ---\n%s", obs::GlobalMetrics()->ToText().c_str());
  return Status::Ok();
}

void PrintUsage() {
  std::fputs(
      "usage: sthist_cli <command> [--flag value ...]\n"
      "\n"
      "commands:\n"
      "  generate    write a synthetic dataset to CSV\n"
      "              --dataset cross|gauss|sky|particle --tuples N --dim D\n"
      "              --seed S --out file.csv\n"
      "  cluster     run subspace clustering and print the clusters\n"
      "              dataset flags + --clusterer mineclus|clique|doc and\n"
      "              that clusterer's flags only:\n"
      "              mineclus: mineclus flags\n"
      "              doc: --alpha A --beta B --width W\n"
      "              clique: --xi N --tau T --max-dims K\n"
      "  experiment  train/simulate an estimator and report errors\n"
      "              --estimator NAME picks the family (default stholes;\n"
      "              trivial|equiwidth|avi|sampling|mhist|stgrid|isomer|\n"
      "              stholes|kde — see histogram/registry.h)\n"
      "              --buckets N --train N --sim N --volume F [--init]\n"
      "              [--reversed] [--freeze] [--data-centers]\n"
      "              + dataset and mineclus flags\n"
      "              fault injection: --fault-rate R --fault-seed S\n"
      "              --fault-noise F [--fault-data]\n"
      "  sweep       run a grid of experiment cells across threads\n"
      "              --buckets 50,100,250 --seeds 21,22 [--init|--both]\n"
      "              --threads N (0 = all cores) [--estimator NAME]\n"
      "              + experiment flags\n"
      "  inspect     print the bucket tree after training\n"
      "              --buckets N --train N --volume F [--init]\n"
      "              + dataset and mineclus flags\n"
      "  snapshot    versioned binary snapshot files (DESIGN.md §17)\n"
      "              save:   train a histogram and persist it\n"
      "                      --out file.snap [--estimator NAME]\n"
      "                      + inspect's training flags\n"
      "              load:   decode a .snap file and print its contents\n"
      "              verify: decode, fail closed on any corruption\n"
      "                      --in file.snap (histogram or fleet snapshots\n"
      "                      are auto-detected by magic)\n"
      "  serve-sim   one-tenant serving simulation in one of three modes,\n"
      "              each accepting only the flags listed for it; every mode\n"
      "              takes --queries N --buckets N --train N --volume F\n"
      "              [--init] --queue-cap N --publish-batch N + mineclus\n"
      "              flags and ends with a /metrics-style dump\n"
      "              concurrent mode (the default): reader threads estimate\n"
      "              against published snapshots while the refiner drains\n"
      "              their feedback; dataset flags, --readers N, and\n"
      "              --fault-rate R --fault-seed S --fault-noise F inject\n"
      "              faults into the refiner's oracle answers\n"
      "              drift mode: --drift cross-move|churn|hotspot|adversarial\n"
      "              --drift-phases N --drift-seed S --drift-tuples N\n"
      "              --drift-span F --dim D --pace P --readers N, the fault\n"
      "              flags above; stagnation re-init is on by default\n"
      "              (--no-reinit disables): --reinit-window N\n"
      "              --reinit-trigger F --reinit-rearm F --reinit-cooldown N\n"
      "              --reinit-backstop N --reinit-reservoir N\n"
      "              --reinit-buckets N [--reinit-sync]\n"
      "              --fault-reinit-rate R --fault-reinit-seed S inject\n"
      "              faults into the rebuild path (aborted swaps keep the\n"
      "              incumbent serving)\n"
      "              replay mode (--pace, --snapshot, --snapshot-every, or\n"
      "              --restore without --drift): dataset flags; one\n"
      "              deterministic replay thread, drains every --pace P\n"
      "              queries, prints a 'serve digest' that is a pure\n"
      "              function of the flags;\n"
      "              --snapshot f.snap [--snapshot-every N] saves\n"
      "              Drain-barriered snapshots, --restore f.snap warm-starts\n"
      "              from one and replays to the uninterrupted run's digest\n"
      "              (same dataset/workload flags required)\n"
      "  fleet-sim   sharded multi-tenant serving: N tenant histograms share\n"
      "              K pooled refiner threads; ends with a determinism\n"
      "              digest over the final snapshots and a metrics dump\n"
      "              --tenants N --refiners K --queries N --buckets N\n"
      "              --readers N --seed S --queue-cap N --publish-batch N\n"
      "              --pace P drains the fleet every P submissions\n"
      "              (--pace 1 = serialized replay: the digest is invariant\n"
      "              across runs and --refiners values)\n"
      "              --snapshot f.snap saves the drained fleet as an STHF\n"
      "              snapshot; --restore f.snap hands the fleet off from one\n"
      "              (tenants/seed come from the file, the driver is skipped,\n"
      "              and with the saving run's --queries the digest matches\n"
      "              it); restore mode takes only --queries --refiners\n"
      "              --readers --queue-cap --publish-batch --snapshot\n"
      "\n"
      "dataset flags: --dataset cross|gauss|sky|particle --tuples N --dim D\n"
      "--seed S, or --data file.csv\n"
      "mineclus flags: --alpha A --beta B --width W --max-clusters N\n"
      "every command accepts --metrics-json <path>: export the run's\n"
      "metrics registry (counters, gauges, latency histograms) as JSON\n"
      "\n"
      "--refiners, --readers and --threads start at most 1024 threads\n"
      "\n"
      "exit codes: 0 ok, 1 runtime failure (including out-of-range values\n"
      "such as --alpha 5 or a thread count above 1024), 2 usage error\n"
      "(unknown flag, a flag the command or mode does not read, malformed\n"
      "number)\n",
      stderr);
}

// Writes the registry's JSON snapshot to the --metrics-json path, if given.
Status MaybeWriteMetricsJson(const Flags& flags,
                             const obs::MetricsRegistry& registry) {
  if (!flags.Has("metrics-json")) return Status::Ok();
  std::string path = flags.Str("metrics-json", "");
  if (path.empty()) {
    return Status::InvalidArgument("--metrics-json needs a file path");
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::string json = registry.ToJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_error = std::fclose(f);
  if (written != json.size() || close_error != 0) {
    return Status::IoError("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return kExitUsage;
  }
  std::string command = argv[1];
  // `snapshot` takes a mode word (save/load/verify) before its flags.
  std::string mode;
  int first_flag = 2;
  if (command == "snapshot") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr, "snapshot requires a mode: save, load, verify\n");
      PrintUsage();
      return kExitUsage;
    }
    mode = argv[2];
    first_flag = 3;
  }
  Flags flags(argc, argv, first_flag);
  if (!flags.error().ok()) {
    std::fprintf(stderr, "%s\n", flags.error().ToString().c_str());
    PrintUsage();
    return kExitUsage;
  }

  // Process-wide metrics: installed before any instrumented component is
  // constructed, exported after the command finishes (--metrics-json).
  obs::MetricsRegistry registry;
  obs::SetGlobalMetrics(&registry);

  Status status;
  if (command == "generate") {
    status = RunGenerate(flags);
  } else if (command == "cluster") {
    status = RunCluster(flags);
  } else if (command == "experiment") {
    status = RunExperiment(flags);
  } else if (command == "sweep") {
    status = RunSweepCommand(flags);
  } else if (command == "inspect") {
    status = RunInspect(flags);
  } else if (command == "snapshot") {
    if (mode == "save") {
      status = RunSnapshotSave(flags);
    } else if (mode == "load") {
      status = RunSnapshotLoad(flags, /*verify_only=*/false);
    } else if (mode == "verify") {
      status = RunSnapshotLoad(flags, /*verify_only=*/true);
    } else {
      std::fprintf(stderr, "unknown snapshot mode: %s\n", mode.c_str());
      PrintUsage();
      return kExitUsage;
    }
  } else if (command == "serve-sim") {
    status = RunServeSim(flags);
  } else if (command == "fleet-sim") {
    status = RunFleetSim(flags);
  } else {
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    PrintUsage();
    return kExitUsage;
  }

  // Export metrics even when the command failed — a partial run's counters
  // are exactly what post-mortems want — but never mask the command's error.
  Status metrics_status = MaybeWriteMetricsJson(flags, registry);

  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    if (status.code() == StatusCode::kInvalidArgument &&
        (status.message().rfind(kUnknownFlag, 0) == 0 ||
         status.message().rfind(kMalformedNumber, 0) == 0)) {
      PrintUsage();
      return kExitUsage;
    }
    return kExitFailure;
  }
  if (!metrics_status.ok()) {
    std::fprintf(stderr, "%s\n", metrics_status.ToString().c_str());
    return kExitFailure;
  }
  return kExitOk;
}
