#include "clustering/doc.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/rng.h"

namespace sthist {
namespace {

/// Random (medoid, discriminating-set) trials per greedy round. A trial
/// only succeeds when the whole discriminating set happens to come from
/// the medoid's cluster (probability ~ cluster_fraction^|X|), so the trial
/// count must be large relative to (1/alpha)^|X|.
constexpr size_t kTrialsPerRound = 256;

/// Stop after this many rounds in a row without a qualifying cluster.
constexpr size_t kMaxFailedRounds = 4;

}  // namespace

Status Validate(const DocConfig& config) {
  // DOC's window settings mean what MineClus's do, over the same ranges.
  MineClusConfig window;
  window.alpha = config.alpha;
  window.beta = config.beta;
  window.width_fraction = config.width_fraction;
  STHIST_RETURN_IF_ERROR(Validate(window));
  if (config.discriminating_set_size < 1) {
    return Status::InvalidArgument("discriminating_set_size must be >= 1");
  }
  return Status::Ok();
}

DocClusterer::DocClusterer(DocConfig config) : config_(config) {
  STHIST_CHECK(Validate(config).ok());
}

std::vector<SubspaceCluster> DocClusterer::Cluster(const Dataset& data,
                                                   const Box& domain) const {
  STHIST_CHECK(data.dim() == domain.dim());
  const size_t n = data.size();
  const size_t dim = data.dim();
  const double gain = 1.0 / config_.beta;
  const double min_size = config_.alpha * static_cast<double>(n);

  std::vector<double> window(dim);
  for (size_t d = 0; d < dim; ++d) {
    window[d] = config_.width_fraction * domain.Extent(d);
  }

  Rng rng(config_.seed);
  std::vector<size_t> remaining(n);
  for (size_t i = 0; i < n; ++i) remaining[i] = i;

  std::vector<SubspaceCluster> clusters;
  size_t failed_rounds = 0;

  while (clusters.size() < config_.max_clusters &&
         static_cast<double>(remaining.size()) >= min_size &&
         failed_rounds < kMaxFailedRounds) {
    double best_score = -1.0;
    size_t best_medoid = 0;
    std::vector<size_t> best_dims;
    std::vector<size_t> best_members;

    for (size_t trial = 0; trial < kTrialsPerRound; ++trial) {
      size_t medoid = remaining[rng.Index(remaining.size())];
      std::span<const double> m = data.row(medoid);

      // The discriminating set votes on the bounded dimensions: keep d only
      // when every sampled point is within the window of the medoid in d.
      std::vector<size_t> dims;
      {
        std::vector<bool> bounded(dim, true);
        size_t x_size = std::min(config_.discriminating_set_size,
                                 remaining.size());
        for (size_t j = 0; j < x_size; ++j) {
          std::span<const double> x =
              data.row(remaining[rng.Index(remaining.size())]);
          for (size_t d = 0; d < dim; ++d) {
            if (std::abs(x[d] - m[d]) > window[d]) bounded[d] = false;
          }
        }
        for (size_t d = 0; d < dim; ++d) {
          if (bounded[d]) dims.push_back(d);
        }
      }
      if (dims.empty()) continue;

      // Candidate cluster: everything inside the medoid's window in the
      // voted dimensions.
      std::vector<size_t> members;
      for (size_t row : remaining) {
        std::span<const double> p = data.row(row);
        bool inside = true;
        for (size_t d : dims) {
          if (std::abs(p[d] - m[d]) > window[d]) {
            inside = false;
            break;
          }
        }
        if (inside) members.push_back(row);
      }
      if (static_cast<double>(members.size()) < min_size) continue;

      double score = static_cast<double>(members.size()) *
                     std::pow(gain, static_cast<double>(dims.size()));
      if (score > best_score) {
        best_score = score;
        best_medoid = medoid;
        best_dims = std::move(dims);
        best_members = std::move(members);
      }
    }

    if (best_score < 0.0) {
      ++failed_rounds;
      continue;
    }
    failed_rounds = 0;

    SubspaceCluster cluster;
    cluster.medoid = best_medoid;
    cluster.relevant_dims = std::move(best_dims);
    cluster.members = std::move(best_members);
    cluster.core_box = data.BoundsOf(cluster.members);
    cluster.score = best_score;
    clusters.push_back(std::move(cluster));

    std::vector<bool> taken(n, false);
    for (size_t row : clusters.back().members) taken[row] = true;
    std::erase_if(remaining, [&taken](size_t row) { return taken[row]; });
  }

  std::sort(clusters.begin(), clusters.end(),
            [](const SubspaceCluster& a, const SubspaceCluster& b) {
              return a.score > b.score;
            });
  return clusters;
}

}  // namespace sthist
