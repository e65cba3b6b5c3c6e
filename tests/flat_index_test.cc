// FlatBoxIndex battery (DESIGN.md §15):
//  - correctness: probes match a brute-force scan across dimensionalities,
//    seeds, entry counts, degenerate boxes, and both overlap modes;
//  - kernel identity: the vectorized and forced-scalar kernels report the
//    same hits in the same order, so the dispatch choice is unobservable;
//  - sentinel safety: padded slots are never reported, even to an
//    all-infinite closed-mode query that their sentinel bounds would match;
//  - allocation: the steady-state read path — both the raw index probe and
//    a full STHoles::Estimate walking its flat bucket tree — performs zero
//    heap allocations, counted via a global operator new hook.

#include "index/flat_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <tuple>
#include <vector>

#include "core/box.h"
#include "core/rng.h"
#include "core/simd.h"
#include "data/generators.h"
#include "histogram/stholes.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace {

// Global allocation counter fed by the replaced operator new (below); used
// to prove the warm probe path allocates nothing.
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// The replacement pair is malloc/free-consistent; GCC's
// -Wmismatched-new-delete can't see that across the replaced functions and
// warns on every delete in the binary.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace sthist {
namespace {

// Restores the dispatch state on scope exit so a failing test cannot leak a
// forced-scalar kernel into the rest of the binary.
struct ScalarGuard {
  explicit ScalarGuard(bool force) { simd::ForceScalarForTest(force); }
  ~ScalarGuard() { simd::ForceScalarForTest(false); }
};

// Reference predicate for BoxOverlap::kClosed: the closed intervals overlap
// in every dimension.
bool ClosedOverlap(const Box& a, const Box& b) {
  for (size_t d = 0; d < a.dim(); ++d) {
    if (a.lo(d) > b.hi(d) || b.lo(d) > a.hi(d)) return false;
  }
  return true;
}

// Random box inside [0, 110)^dim; with probability `degenerate_p` each
// dimension independently collapses to zero extent.
Box RandomBox(size_t dim, Rng* rng, double degenerate_p = 0.0) {
  Box box = Box::Cube(dim, 0.0, 1.0);
  for (size_t d = 0; d < dim; ++d) {
    const double lo = rng->Uniform(0.0, 80.0);
    const double extent =
        rng->Bernoulli(degenerate_p) ? 0.0 : rng->Uniform(0.0, 30.0);
    box.set_lo(d, lo);
    box.set_hi(d, lo + extent);
  }
  return box;
}

std::vector<uint64_t> BruteProbe(
    const std::vector<FlatBoxIndex::Entry>& entries, const Box& query,
    BoxOverlap mode) {
  std::vector<uint64_t> out;
  for (const FlatBoxIndex::Entry& e : entries) {
    const bool hit = mode == BoxOverlap::kOpenInterior
                         ? e.box.Intersects(query)
                         : ClosedOverlap(e.box, query);
    if (hit) out.push_back(e.id);
  }
  return out;
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Probes the index with 200 random queries and checks the hit set against
// the brute-force reference in both modes — and that the forced-scalar
// kernel reproduces the dispatched kernel's output exactly (same hits, same
// order), which makes the SIMD level unobservable.
void ExpectProbesMatchBruteForce(
    const FlatBoxIndex& index, const std::vector<FlatBoxIndex::Entry>& entries,
    size_t dim, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < 200; ++i) {
    const Box query = RandomBox(dim, &rng, /*degenerate_p=*/0.1);
    for (BoxOverlap mode : {BoxOverlap::kOpenInterior, BoxOverlap::kClosed}) {
      std::vector<uint64_t> got;
      index.Probe(query, mode, &got);
      std::vector<uint64_t> scalar;
      {
        ScalarGuard guard(true);
        index.Probe(query, mode, &scalar);
      }
      EXPECT_EQ(got, scalar)
          << "kernel divergence, dim=" << dim << " query=" << query.ToString();
      EXPECT_EQ(Sorted(std::move(got)), Sorted(BruteProbe(entries, query, mode)))
          << "dim=" << dim << " query=" << query.ToString()
          << " mode=" << (mode == BoxOverlap::kClosed ? "closed" : "open");
    }
  }
}

TEST(FlatBoxIndexTest, EmptyIndexProbesNothing) {
  FlatBoxIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  std::vector<uint64_t> out;
  const FlatBoxIndex::ProbeStats stats =
      index.Probe(Box::Cube(3, 0.0, 100.0), BoxOverlap::kOpenInterior, &out);
  index.Probe(Box::Cube(3, 0.0, 100.0), BoxOverlap::kClosed, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.node_visits, 0u);
  EXPECT_EQ(stats.entry_blocks, 0u);
}

TEST(FlatBoxIndexTest, ProbeAppendsWithoutClearing) {
  FlatBoxIndex index;
  index.Bulk({{Box::Cube(2, 0.0, 10.0), 7}});
  std::vector<uint64_t> out = {42};
  index.Probe(Box::Cube(2, 1.0, 2.0), BoxOverlap::kOpenInterior, &out);
  EXPECT_EQ(out, (std::vector<uint64_t>{42, 7}));
}

class FlatBoxIndexRandomTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t, size_t>> {};

TEST_P(FlatBoxIndexRandomTest, BulkMatchesBruteForce) {
  const auto [dim, seed, count] = GetParam();
  Rng rng(seed);
  std::vector<FlatBoxIndex::Entry> entries;
  for (size_t i = 0; i < count; ++i) {
    entries.push_back({RandomBox(dim, &rng, /*degenerate_p=*/0.05), i});
  }
  FlatBoxIndex index;
  index.Bulk(entries);
  EXPECT_EQ(index.size(), entries.size());
  ExpectProbesMatchBruteForce(index, entries, dim, seed ^ 0x9e3779b9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlatBoxIndexRandomTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 5, 8),
                       ::testing::Values<uint64_t>(3, 17),
                       ::testing::Values<size_t>(1, 7, 64, 400)),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

TEST(FlatBoxIndexTest, DegenerateEntryProbeModes) {
  FlatBoxIndex index;
  Box inside = Box::Cube(2, 5.0, 5.0);      // Zero extent, strictly interior.
  Box boundary = Box::Cube(2, 10.0, 10.0);  // Zero extent, on the boundary.
  index.Bulk({{inside, 1}, {boundary, 2}});
  Box covering = Box::Cube(2, 0.0, 10.0);
  std::vector<uint64_t> open, closed;
  index.Probe(covering, BoxOverlap::kOpenInterior, &open);
  index.Probe(covering, BoxOverlap::kClosed, &closed);
  EXPECT_EQ(open, std::vector<uint64_t>{1});
  EXPECT_EQ(Sorted(std::move(closed)), (std::vector<uint64_t>{1, 2}));
}

TEST(FlatBoxIndexTest, TouchingBoxesVisibleOnlyToClosedProbes) {
  FlatBoxIndex index;
  index.Bulk({{Box::Cube(2, 0.0, 5.0), 1}});
  Box touching = Box::Cube(2, 5.0, 10.0);  // Shares only the corner at (5,5).
  std::vector<uint64_t> open, closed;
  index.Probe(touching, BoxOverlap::kOpenInterior, &open);
  index.Probe(touching, BoxOverlap::kClosed, &closed);
  EXPECT_TRUE(open.empty());
  EXPECT_EQ(closed, std::vector<uint64_t>{1});
}

TEST(FlatBoxIndexTest, ClearResetsToEmpty) {
  Rng rng(5);
  std::vector<FlatBoxIndex::Entry> entries;
  for (uint64_t i = 0; i < 50; ++i) entries.push_back({RandomBox(3, &rng), i});
  FlatBoxIndex index;
  index.Bulk(entries);
  EXPECT_EQ(index.size(), 50u);
  index.Clear();
  EXPECT_TRUE(index.empty());
  std::vector<uint64_t> out;
  index.Probe(Box::Cube(3, 0.0, 200.0), BoxOverlap::kClosed, &out);
  EXPECT_TRUE(out.empty());
  index.Bulk({{Box::Cube(3, 0.0, 1.0), 9}});
  index.Probe(Box::Cube(3, 0.0, 200.0), BoxOverlap::kClosed, &out);
  EXPECT_EQ(out, std::vector<uint64_t>{9});
}

// 16-d entries with zero extent outside dimension 0: every box and node
// volume is exactly 0.0, so a partition guided by volume could not tell the
// entries apart. The center-spread median split still separates them, so a
// point probe resolves in a few root-to-leaf paths instead of scanning the
// whole tree.
TEST(FlatBoxIndexTest, HighDimZeroVolumeEntriesStayDiscriminating) {
  constexpr size_t kDim = 16;
  constexpr size_t kCount = 512;
  std::vector<FlatBoxIndex::Entry> entries;
  for (uint64_t i = 0; i < kCount; ++i) {
    Box box = Box::Cube(kDim, 0.5, 0.5);
    box.set_lo(0, static_cast<double>(i) * 100.0);
    box.set_hi(0, static_cast<double>(i) * 100.0);
    entries.push_back({box, i});
  }
  Rng rng(61);
  rng.Shuffle(&entries);
  FlatBoxIndex index;
  index.Bulk(entries);

  uint32_t max_visits = 0;
  for (const FlatBoxIndex::Entry& e : entries) {
    std::vector<uint64_t> out;
    const FlatBoxIndex::ProbeStats stats =
        index.Probe(e.box, BoxOverlap::kClosed, &out);
    max_visits = std::max(max_visits, stats.node_visits);
    EXPECT_EQ(out, std::vector<uint64_t>{e.id}) << "entry " << e.id;
  }
  EXPECT_LE(max_visits, 40u);
}

TEST(FlatBoxIndexTest, DuplicateBoxesAllReported) {
  Box box = Box::Cube(2, 1.0, 2.0);
  std::vector<FlatBoxIndex::Entry> entries;
  for (uint64_t i = 0; i < 20; ++i) entries.push_back({box, i});
  FlatBoxIndex index;
  index.Bulk(entries);
  std::vector<uint64_t> out;
  index.Probe(box, BoxOverlap::kOpenInterior, &out);
  std::vector<uint64_t> want(20);
  for (uint64_t i = 0; i < 20; ++i) want[i] = i;
  EXPECT_EQ(Sorted(std::move(out)), want);
}

// The sentinel bounds of padded slots (lo = +inf, hi = -inf) satisfy the
// closed-overlap compare against a query spanning [-inf, +inf], so this is
// the one query shape that reaches the explicit pad filter. No pad id may
// ever surface.
TEST(FlatBoxIndexTest, InfiniteQueryNeverReportsPadSlots) {
  Rng rng(11);
  std::vector<FlatBoxIndex::Entry> entries;
  // 21 entries: leaves pad to a block multiple, so pads certainly exist.
  for (uint64_t i = 0; i < 21; ++i) {
    entries.push_back({RandomBox(3, &rng), i});
  }
  FlatBoxIndex index;
  index.Bulk(entries);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Box everything = Box::Cube(3, -kInf, kInf);
  for (BoxOverlap mode : {BoxOverlap::kOpenInterior, BoxOverlap::kClosed}) {
    std::vector<uint64_t> out;
    index.Probe(everything, mode, &out);
    std::vector<uint64_t> want(21);
    for (uint64_t i = 0; i < 21; ++i) want[i] = i;
    EXPECT_EQ(Sorted(std::move(out)), want)
        << (mode == BoxOverlap::kClosed ? "closed" : "open");
  }
}

TEST(FlatBoxIndexTest, ProbeStatsCountWork) {
  Rng rng(31);
  std::vector<FlatBoxIndex::Entry> entries;
  for (uint64_t i = 0; i < 500; ++i) {
    entries.push_back({RandomBox(2, &rng), i});
  }
  FlatBoxIndex index;
  index.Bulk(entries);
  std::vector<uint64_t> out;
  // A probe disjoint from every entry prunes at the root: one node visit,
  // zero entry blocks.
  Box far = Box::Cube(2, 500.0, 600.0);
  FlatBoxIndex::ProbeStats miss =
      index.Probe(far, BoxOverlap::kOpenInterior, &out);
  EXPECT_EQ(miss.node_visits, 1u);
  EXPECT_EQ(miss.entry_blocks, 0u);
  EXPECT_TRUE(out.empty());
  // A probe covering everything visits every node and runs every block.
  Box everything = Box::Cube(2, -10.0, 200.0);
  FlatBoxIndex::ProbeStats hit =
      index.Probe(everything, BoxOverlap::kOpenInterior, &out);
  EXPECT_GT(hit.node_visits, 1u);
  EXPECT_GT(hit.entry_blocks, 0u);
  EXPECT_EQ(out.size(), 500u);
}

// ---------------------------------------------------------------------------
// Allocation discipline
// ---------------------------------------------------------------------------

// The raw probe is allocation-free once the output vector's capacity is
// warm: fixed traversal stack, fixed per-leaf hit buffer, no temporaries.
TEST(FlatIndexAllocationTest, WarmProbeDoesNotAllocate) {
  Rng rng(37);
  std::vector<FlatBoxIndex::Entry> entries;
  for (uint64_t i = 0; i < 400; ++i) {
    entries.push_back({RandomBox(4, &rng), i});
  }
  FlatBoxIndex index;
  index.Bulk(entries);
  std::vector<Box> queries;
  for (size_t i = 0; i < 50; ++i) queries.push_back(RandomBox(4, &rng));

  std::vector<uint64_t> out;
  auto run = [&] {
    for (const Box& q : queries) {
      out.clear();
      index.Probe(q, BoxOverlap::kOpenInterior, &out);
      out.clear();
      index.Probe(q, BoxOverlap::kClosed, &out);
    }
  };
  run();  // Warm `out` to its steady-state capacity.

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  run();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

// End to end: a warm STHoles::Estimate — the walk over the flat bucket tree,
// its thread-local hit buffer, metrics — performs zero heap allocations per
// query.
TEST(FlatIndexAllocationTest, WarmSTHolesEstimateDoesNotAllocate) {
  CrossConfig data_config;
  data_config.dim = 3;
  data_config.tuples_per_cluster = 600;
  data_config.noise_tuples = 300;
  data_config.seed = 41;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);

  STHolesConfig config;
  config.max_buckets = 60;
  STHoles h(g.domain, static_cast<double>(g.data.size()), config);

  WorkloadConfig wc;
  wc.num_queries = 60;
  wc.seed = 43;
  for (const Box& q : MakeWorkload(g.domain, wc)) h.Refine(q, executor);

  wc.num_queries = 30;
  wc.seed = 47;
  Workload probes = MakeWorkload(g.domain, wc);

  // Warm-up passes: trigger the lazy index build (it waits for repeated
  // estimates on a stable tree) and grow the thread-local scratch buffers
  // to steady-state capacity.
  for (int pass = 0; pass < 3; ++pass) {
    for (const Box& q : probes) (void)h.Estimate(q);
  }

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  double sink = 0.0;
  for (const Box& q : probes) sink += h.Estimate(q);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
      << "steady-state Estimate allocated on the hot path";
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace sthist
