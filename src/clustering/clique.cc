#include "clustering/clique.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/check.h"

namespace sthist {

namespace {

/// Cap on dense units kept per subspace dimensionality level (safety
/// valve against degenerate settings).
constexpr size_t kMaxUnitsPerLevel = 200000;

// Cell coordinates of one unit within a fixed subspace.
using CellKey = std::vector<uint32_t>;

struct CellKeyHash {
  size_t operator()(const CellKey& key) const {
    size_t h = 1469598103934665603ull;
    for (uint32_t v : key) {
      h ^= v;
      h *= 1099511628211ull;
    }
    return h;
  }
};

using UnitCounts = std::unordered_map<CellKey, size_t, CellKeyHash>;

// All dense units of one subspace.
struct SubspaceLevel {
  std::vector<size_t> dims;  // Sorted.
  UnitCounts dense_units;
  size_t total_mass = 0;
};

// Union-find over unit indices.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

Status Validate(const CliqueConfig& config) {
  if (config.xi < 2) {
    return StatusF(StatusCode::kInvalidArgument, "xi must be >= 2, got %zu",
                   config.xi);
  }
  if (!(config.tau > 0.0)) {
    return StatusF(StatusCode::kInvalidArgument,
                   "tau must be positive, got %g", config.tau);
  }
  if (config.max_dims < 1) {
    return Status::InvalidArgument("max_dims must be >= 1");
  }
  return Status::Ok();
}

CliqueClusterer::CliqueClusterer(CliqueConfig config) : config_(config) {
  STHIST_CHECK(Validate(config).ok());
}

std::vector<SubspaceCluster> CliqueClusterer::Cluster(
    const Dataset& data, const Box& domain) const {
  STHIST_CHECK(data.dim() == domain.dim());
  const size_t n = data.size();
  const size_t dim = data.dim();
  if (n == 0) return {};

  // Precompute every tuple's grid cell per dimension.
  std::vector<uint32_t> cells(n * dim);
  for (size_t i = 0; i < n; ++i) {
    std::span<const double> p = data.row(i);
    for (size_t d = 0; d < dim; ++d) {
      double extent = domain.Extent(d);
      double frac = extent > 0.0 ? (p[d] - domain.lo(d)) / extent : 0.0;
      auto cell = static_cast<uint32_t>(
          frac * static_cast<double>(config_.xi));
      cells[i * dim + d] =
          std::min(cell, static_cast<uint32_t>(config_.xi - 1));
    }
  }

  // Density threshold per level: tau times the uniform expectation for a
  // level-k unit, with a small absolute floor. (Plain CLIQUE uses one fixed
  // tau; a level-adaptive threshold is the standard fix for the fact that
  // uniform cell mass shrinks as xi^-k.)
  auto threshold = [&](size_t level) {
    double uniform = static_cast<double>(n) /
                     std::pow(static_cast<double>(config_.xi),
                              static_cast<double>(level));
    return std::max(config_.tau * static_cast<double>(n),
                    std::max(1.5 * uniform, 8.0));
  };

  // Counts the grid units of one subspace in a single pass and keeps the
  // dense ones.
  auto count_subspace = [&](const std::vector<size_t>& dims) {
    SubspaceLevel level;
    level.dims = dims;
    UnitCounts counts;
    CellKey key(dims.size());
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < dims.size(); ++j) {
        key[j] = cells[i * dim + dims[j]];
      }
      ++counts[key];
    }
    double min_count = threshold(dims.size());
    for (auto& [cell, count] : counts) {
      if (static_cast<double>(count) >= min_count) {
        level.dense_units.emplace(cell, count);
        level.total_mass += count;
      }
    }
    return level;
  };

  // Level 1: every single dimension.
  std::vector<std::vector<SubspaceLevel>> levels(1);
  for (size_t d = 0; d < dim; ++d) {
    SubspaceLevel level = count_subspace({d});
    if (!level.dense_units.empty()) levels[0].push_back(std::move(level));
  }

  // Apriori over subspaces: a k-dim subspace is a candidate only when all
  // its (k-1)-dim sub-subspaces had dense units.
  for (size_t k = 2; k <= config_.max_dims && !levels[k - 2].empty(); ++k) {
    const std::vector<SubspaceLevel>& prev = levels[k - 2];
    std::vector<SubspaceLevel> next;

    // Fast membership test for (k-1)-dim subspaces.
    auto has_prev = [&](std::vector<size_t> dims) {
      for (const SubspaceLevel& level : prev) {
        if (level.dims == dims) return true;
      }
      return false;
    };

    std::vector<std::vector<size_t>> candidates;
    for (size_t a = 0; a < prev.size(); ++a) {
      for (size_t b = a + 1; b < prev.size(); ++b) {
        // Join: same first k-2 dims, distinct last dim.
        const std::vector<size_t>& da = prev[a].dims;
        const std::vector<size_t>& db = prev[b].dims;
        bool joinable = true;
        for (size_t j = 0; j + 1 < da.size(); ++j) {
          if (da[j] != db[j]) {
            joinable = false;
            break;
          }
        }
        if (!joinable || da.back() == db.back()) continue;
        std::vector<size_t> merged = da;
        merged.push_back(db.back());
        std::sort(merged.begin(), merged.end());

        // Verify all (k-1)-subsets are dense subspaces.
        bool all_present = true;
        for (size_t skip = 0; skip < merged.size() && all_present; ++skip) {
          std::vector<size_t> subset;
          for (size_t j = 0; j < merged.size(); ++j) {
            if (j != skip) subset.push_back(merged[j]);
          }
          all_present = has_prev(subset);
        }
        if (all_present) candidates.push_back(std::move(merged));
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    for (const std::vector<size_t>& dims : candidates) {
      SubspaceLevel level = count_subspace(dims);
      if (level.dense_units.empty()) continue;
      if (level.dense_units.size() > kMaxUnitsPerLevel) continue;
      next.push_back(std::move(level));
    }
    levels.push_back(std::move(next));
  }

  // Keep only maximal subspaces: drop a subspace if a retained higher-level
  // subspace contains all its dimensions (its structure reappears there).
  std::vector<const SubspaceLevel*> maximal;
  for (size_t k = 0; k < levels.size(); ++k) {
    for (const SubspaceLevel& level : levels[k]) {
      bool covered = false;
      for (size_t k2 = k + 1; k2 < levels.size() && !covered; ++k2) {
        for (const SubspaceLevel& higher : levels[k2]) {
          if (std::includes(higher.dims.begin(), higher.dims.end(),
                            level.dims.begin(), level.dims.end())) {
            covered = true;
            break;
          }
        }
      }
      if (!covered) maximal.push_back(&level);
    }
  }

  // Connected components of dense units per maximal subspace, then member
  // collection.
  std::vector<SubspaceCluster> clusters;
  for (const SubspaceLevel* level : maximal) {
    const std::vector<size_t>& dims = level->dims;
    std::vector<const CellKey*> unit_keys;
    std::unordered_map<CellKey, size_t, CellKeyHash> unit_index;
    for (const auto& [cell, count] : level->dense_units) {
      unit_index.emplace(cell, unit_keys.size());
      unit_keys.push_back(&cell);
    }

    UnionFind components(unit_keys.size());
    for (size_t u = 0; u < unit_keys.size(); ++u) {
      CellKey probe = *unit_keys[u];
      for (size_t j = 0; j < dims.size(); ++j) {
        // Only +1 neighbors: -1 adjacency is found from the other side.
        ++probe[j];
        auto it = unit_index.find(probe);
        if (it != unit_index.end()) components.Union(u, it->second);
        --probe[j];
      }
    }

    // Component id per unit, members per component.
    std::unordered_map<size_t, size_t> component_slot;
    std::vector<SubspaceCluster> local;
    CellKey key(dims.size());
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < dims.size(); ++j) {
        key[j] = cells[i * dim + dims[j]];
      }
      auto it = unit_index.find(key);
      if (it == unit_index.end()) continue;
      size_t root = components.Find(it->second);
      auto [slot_it, inserted] =
          component_slot.emplace(root, local.size());
      if (inserted) {
        SubspaceCluster cluster;
        cluster.relevant_dims = dims;
        local.push_back(std::move(cluster));
      }
      local[slot_it->second].members.push_back(i);
    }

    for (SubspaceCluster& cluster : local) {
      cluster.core_box = data.BoundsOf(cluster.members);
      cluster.medoid = cluster.members.front();
      cluster.score =
          static_cast<double>(cluster.members.size()) *
          std::pow(4.0, static_cast<double>(cluster.relevant_dims.size()));
      clusters.push_back(std::move(cluster));
    }
  }

  std::sort(clusters.begin(), clusters.end(),
            [](const SubspaceCluster& a, const SubspaceCluster& b) {
              return a.score > b.score;
            });
  if (clusters.size() > config_.max_clusters) {
    clusters.resize(config_.max_clusters);
  }
  return clusters;
}

}  // namespace sthist
