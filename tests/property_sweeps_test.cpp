// Cross-module property sweeps:
//   * the specialized QRCP must recover a planted clean event set from
//     randomized measurement matrices (duplicates + combinations + noise
//     columns + a huge-norm column), for any seed;
//   * the set-associative LRU cache (and the TLB built from it) must agree,
//     access by access and statistic by statistic, with the stamp-based
//     reference model over a seeded geometry sweep, and meet the analytic
//     properties of true LRU on pointer chases;
//   * the QR least-squares solver must agree with an SVD-based
//     pseudo-inverse solve.
#include <gtest/gtest.h>

#include "seed_util.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cachesim/cachesim.hpp"
#include "core/qrcp_special.hpp"
#include "linalg/linalg.hpp"

namespace catalyst {
namespace {

// --- planted-structure QRCP sweep ---------------------------------------------

class PlantedQrcp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlantedQrcp, RecoversExactlyThePlantedCleanColumns) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dim_dist(4, 10);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const int dims = dim_dist(rng);

  // Planted clean columns: basis vectors (with noise far below alpha),
  // several per dimension -- any copy is an equally valid pick, so the
  // column's TYPE carries the invariant: the algorithm must select only
  // basis-aligned columns, one per dimension, never a combination, a noise
  // column, or the huge-norm trap.
  std::vector<linalg::Vector> columns;
  std::vector<int> column_dim;  // >= 0: unit column of that dim; -1: pollution
  std::normal_distribution<double> tiny(0.0, 5e-6);
  auto noisy_unit = [&](int dim) {
    linalg::Vector v(static_cast<std::size_t>(dims), 0.0);
    for (auto& x : v) x = tiny(rng);
    v[static_cast<std::size_t>(dim)] += 1.0;
    return v;
  };
  for (int copy = 0; copy < 2; ++copy) {
    for (int d = 0; d < dims; ++d) {
      columns.push_back(noisy_unit(d));
      column_dim.push_back(d);
    }
  }
  // Pollution: pairwise combinations, pure noise columns, one huge column.
  for (int k = 0; k + 1 < dims; ++k) {
    linalg::Vector combo = noisy_unit(k);
    const auto other = noisy_unit(k + 1);
    for (std::size_t i = 0; i < combo.size(); ++i) combo[i] += other[i];
    columns.push_back(combo);  // combination (score 2)
    column_dim.push_back(-1);
  }
  for (int k = 0; k < 3; ++k) {
    linalg::Vector noise(static_cast<std::size_t>(dims));
    for (auto& x : noise) x = tiny(rng);
    columns.push_back(noise);  // below beta
    column_dim.push_back(-1);
  }
  {
    linalg::Vector huge(static_cast<std::size_t>(dims), 1e5);
    columns.push_back(huge);  // the max-norm trap
    column_dim.push_back(-1);
  }
  // Shuffle so position carries no information.
  std::vector<std::size_t> order(columns.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<linalg::Vector> shuffled(columns.size());
  std::vector<int> shuffled_dim(columns.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    shuffled[pos] = columns[order[pos]];
    shuffled_dim[pos] = column_dim[order[pos]];
  }

  const auto x = linalg::Matrix::from_columns(shuffled);
  const auto res = core::specialized_qrcp(x, 5e-4);

  ASSERT_EQ(res.rank, dims) << testing::seed_banner(seed);
  std::vector<bool> covered(static_cast<std::size_t>(dims), false);
  for (linalg::index_t sel : res.selected) {
    const int dim = shuffled_dim[static_cast<std::size_t>(sel)];
    ASSERT_GE(dim, 0) << testing::seed_banner(seed) << " picked polluted column "
                      << sel;
    EXPECT_FALSE(covered[static_cast<std::size_t>(dim)])
        << testing::seed_banner(seed) << " picked dimension " << dim << " twice";
    covered[static_cast<std::size_t>(dim)] = true;
  }
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](bool c) { return c; }))
      << testing::seed_banner(seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlantedQrcp,
                         ::testing::ValuesIn(testing::sweep_seeds(1, 10)));

// --- cache reference model ----------------------------------------------------

// Executable specification: the stamp-based true-LRU level cachesim used to
// ship.  Every way carries a valid bit and a last-use stamp from a per-level
// clock; a miss fills the first invalid way, else evicts the smallest
// stamp.  The shipped CacheLevel keeps only recency-ordered tags and must
// agree with this model access by access, statistic by statistic.
class StampLevel {
 public:
  explicit StampLevel(const cachesim::LevelConfig& config)
      : config_(config),
        sets_(config.num_sets()),
        ways_(sets_ * config.associativity) {}

  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr / config_.line_bytes;
    ++clock_;
    if (Way* w = find(line)) {
      w->stamp = clock_;
      ++stats_.demand_hits;
      return true;
    }
    ++stats_.demand_misses;
    fill(line);
    if (config_.prefetch == cachesim::PrefetchPolicy::next_line) {
      for (std::uint32_t d = 1; d <= config_.prefetch_degree; ++d) {
        ++clock_;
        if (find(line + d) == nullptr) {
          fill(line + d);
          ++stats_.prefetches_issued;
        }
      }
    }
    return false;
  }

  bool contains(std::uint64_t addr) {
    return find(addr / config_.line_bytes) != nullptr;
  }

  void install(std::uint64_t addr) {
    const std::uint64_t line = addr / config_.line_bytes;
    ++clock_;
    if (Way* w = find(line)) {
      w->stamp = clock_;
      return;
    }
    fill(line);
  }

  void reset() {
    for (Way& w : ways_) w = Way{};
    clock_ = 0;
    stats_ = cachesim::LevelStats{};
  }

  const cachesim::LevelStats& stats() const { return stats_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
  };

  Way* set_of(std::uint64_t line) {
    return ways_.data() + (line % sets_) * config_.associativity;
  }
  Way* find(std::uint64_t line) {
    Way* set = set_of(line);
    for (std::uint32_t w = 0; w < config_.associativity; ++w) {
      if (set[w].valid && set[w].tag == line) return &set[w];
    }
    return nullptr;
  }
  void fill(std::uint64_t line) {
    Way* set = set_of(line);
    Way* victim = set;
    for (std::uint32_t w = 0; w < config_.associativity; ++w) {
      if (!set[w].valid) {
        victim = &set[w];
        break;
      }
      if (set[w].stamp < victim->stamp) victim = &set[w];
    }
    *victim = Way{line, clock_, true};
  }

  cachesim::LevelConfig config_;
  std::uint64_t sets_;
  std::vector<Way> ways_;
  std::uint64_t clock_ = 0;
  cachesim::LevelStats stats_;
};

void expect_same_stats(const cachesim::LevelStats& got,
                       const cachesim::LevelStats& want,
                       const std::string& where) {
  EXPECT_EQ(got.demand_hits, want.demand_hits) << where;
  EXPECT_EQ(got.demand_misses, want.demand_misses) << where;
  EXPECT_EQ(got.prefetches_issued, want.prefetches_issued) << where;
}

/// A geometry drawn from the sweep: 1-64 sets, 1-16 ways, 32-128 B lines,
/// prefetch none or next_line with degree 1-3.
cachesim::LevelConfig random_geometry(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> log_sets(0, 6);
  std::uniform_int_distribution<std::uint32_t> ways(1, 16);
  std::uniform_int_distribution<int> log_line(5, 7);
  std::uniform_int_distribution<std::uint32_t> degree(1, 3);
  cachesim::LevelConfig cfg;
  cfg.name = "T";
  cfg.associativity = ways(rng);
  cfg.line_bytes = 1u << log_line(rng);
  cfg.size_bytes = (std::uint64_t{1} << log_sets(rng)) * cfg.associativity *
                   cfg.line_bytes;
  if (rng() % 2 == 0) {
    cfg.prefetch = cachesim::PrefetchPolicy::next_line;
    cfg.prefetch_degree = degree(rng);
  }
  return cfg;
}

std::string describe(const cachesim::LevelConfig& cfg) {
  return std::to_string(cfg.num_sets()) + " sets x " +
         std::to_string(cfg.associativity) + " ways x " +
         std::to_string(cfg.line_bytes) + " B, prefetch degree " +
         (cfg.prefetch == cachesim::PrefetchPolicy::none
              ? std::string("none")
              : std::to_string(cfg.prefetch_degree));
}

class CacheVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheVsReference, HitMissSequencesAgreeOnRandomTraces) {
  // Per seed: 24 random geometries, each driven by 4000 interleaved
  // accesses, installs, probes and (rare) resets over a footprint about
  // three times the capacity, half of them short sequential runs so the
  // prefetcher meets lines that are already present.
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  for (int g = 0; g < 24; ++g) {
    const cachesim::LevelConfig cfg = random_geometry(rng);
    cachesim::CacheLevel cache(cfg);
    StampLevel reference(cfg);
    const std::uint64_t lines = 3 * cfg.num_sets() * cfg.associativity + 4;
    std::uniform_int_distribution<std::uint64_t> line(0, lines);
    std::uniform_int_distribution<std::uint64_t> offset(0,
                                                        cfg.line_bytes - 1);
    std::uniform_int_distribution<int> op(0, 999);
    std::uint64_t prev = 0;
    for (int i = 0; i < 4000; ++i) {
      const std::string where = testing::seed_banner(seed) + describe(cfg) +
                                ", op " + std::to_string(i);
      const std::uint64_t next_line =
          rng() % 2 == 0 ? line(rng) : prev / cfg.line_bytes + rng() % 3;
      const std::uint64_t a = next_line * cfg.line_bytes + offset(rng);
      prev = a;
      const int kind = op(rng);
      if (kind < 2) {
        cache.reset();
        reference.reset();
      } else if (kind < 120) {
        cache.install(a);
        reference.install(a);
      } else if (kind < 270) {
        ASSERT_EQ(cache.contains(a), reference.contains(a)) << where;
      } else {
        ASSERT_EQ(cache.access(a), reference.access(a)) << where;
      }
      expect_same_stats(cache.stats(), reference.stats(), where);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST_P(CacheVsReference, TwoLevelTlbAgreesWithReference) {
  // The TLB is two CacheLevels with page-sized lines: the DTLB, then the
  // STLB on a DTLB miss, a walk when both miss.
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed ^ 0x71b);
  std::uniform_int_distribution<int> log_page(6, 12);
  std::uniform_int_distribution<int> log_ways(0, 3);
  std::uniform_int_distribution<int> log_sets(0, 4);
  for (int g = 0; g < 12; ++g) {
    cachesim::TlbConfig cfg;
    const std::uint32_t page = 1u << log_page(rng);
    cfg.l1 = {"DTLB", 0, 1u << log_ways(rng), page};
    cfg.l1.entries = cfg.l1.associativity << log_sets(rng);
    cfg.l2 = {"STLB", 0, 1u << log_ways(rng), page};
    cfg.l2.entries = std::max(cfg.l1.entries,
                              cfg.l2.associativity << log_sets(rng));
    cachesim::TlbHierarchy tlb(cfg);
    StampLevel l1(cfg.l1.as_cache_config());
    StampLevel l2(cfg.l2.as_cache_config());
    cachesim::TlbStats want;
    std::uniform_int_distribution<std::uint64_t> addr(
        0, std::uint64_t{3} * cfg.l2.entries * page);
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t a = addr(rng);
      std::optional<std::size_t> level;
      if (l1.access(a)) {
        ++want.l1_hits;
        level = 0;
      } else {
        ++want.l1_misses;
        if (l2.access(a)) {
          ++want.l2_hits;
          level = 1;
        } else {
          ++want.walks;
        }
      }
      ASSERT_EQ(tlb.access(a), level)
          << testing::seed_banner(seed) << "geometry " << g << ", access "
          << i;
    }
    const cachesim::TlbStats& got = tlb.stats();
    EXPECT_EQ(got.l1_hits, want.l1_hits) << testing::seed_banner(seed);
    EXPECT_EQ(got.l1_misses, want.l1_misses) << testing::seed_banner(seed);
    EXPECT_EQ(got.l2_hits, want.l2_hits) << testing::seed_banner(seed);
    EXPECT_EQ(got.walks, want.walks) << testing::seed_banner(seed);
  }
}

// Analytic properties of true LRU over a chase of `n` consecutive lines
// (random cyclic order or sequential), for random no-prefetch geometries.

/// Single-level chase of `n` elements at one line per element.
cachesim::ChaseResult chase_lines(const cachesim::LevelConfig& cfg,
                                  std::uint64_t n, cachesim::ChainOrder order,
                                  std::uint64_t seed) {
  cachesim::HierarchyConfig h;
  h.levels = {cfg};
  cachesim::CacheHierarchy hierarchy(h);
  cachesim::ChaseConfig chase;
  chase.num_pointers = n;
  chase.stride_bytes = cfg.line_bytes;
  chase.base_addr = cfg.line_bytes * (seed % 7);
  chase.seed = seed;
  chase.order = order;
  chase.warmup_traversals = 1;
  chase.measured_traversals = 3;
  return cachesim::run_chase(hierarchy, chase);
}

TEST_P(CacheVsReference, CyclicChaseThatFitsNeverMissesInSteadyState) {
  // n consecutive lines spread over the sets at most ceil(n / sets) per
  // set; with n <= ways x sets every set holds its share, so after one
  // warm-up traversal nothing is ever evicted.
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed ^ 0xf17);
  for (int g = 0; g < 16; ++g) {
    cachesim::LevelConfig cfg = random_geometry(rng);
    cfg.prefetch = cachesim::PrefetchPolicy::none;
    const std::uint64_t capacity = cfg.num_sets() * cfg.associativity;
    const std::uint64_t n = 1 + rng() % capacity;
    const auto res = chase_lines(cfg, n, cachesim::ChainOrder::random_cycle,
                                 rng());
    EXPECT_EQ(res.level_stats[0].demand_misses, 0u)
        << testing::seed_banner(seed) << describe(cfg) << ", n " << n;
    EXPECT_EQ(res.level_stats[0].demand_hits, res.total_accesses)
        << testing::seed_banner(seed) << describe(cfg) << ", n " << n;
  }
}

TEST_P(CacheVsReference, SequentialChaseBeyondCapacityMissesEveryAccess) {
  // With n >= (ways + 1) x sets every set cycles through more lines than
  // it has ways, and LRU evicts each line just before its next use.
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed ^ 0x5e9);
  for (int g = 0; g < 16; ++g) {
    cachesim::LevelConfig cfg = random_geometry(rng);
    cfg.prefetch = cachesim::PrefetchPolicy::none;
    const std::uint64_t floor = cfg.num_sets() * (cfg.associativity + 1);
    const std::uint64_t n = floor + rng() % (2 * floor);
    const auto res =
        chase_lines(cfg, n, cachesim::ChainOrder::sequential, rng());
    EXPECT_EQ(res.level_stats[0].demand_misses, res.total_accesses)
        << testing::seed_banner(seed) << describe(cfg) << ", n " << n;
    EXPECT_EQ(res.level_stats[0].demand_hits, 0u)
        << testing::seed_banner(seed) << describe(cfg) << ", n " << n;
  }
}

TEST_P(CacheVsReference, TlbWalksMatchPageArithmetic) {
  // A sequential walk touches each page page/stride times in a row: the
  // first touch of a page walks once (cold) and the rest hit the DTLB.  In
  // steady state a walk over pages that fit every DTLB set never walks,
  // and one that overflows every STLB set walks once per page.
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed ^ 0x7a6e);
  const cachesim::TlbConfig cfg = cachesim::TlbConfig::tiny();  // 4/16, 64 B
  const std::uint64_t page = cfg.l1.page_bytes;
  for (int g = 0; g < 16; ++g) {
    const std::uint32_t stride = 8u << (rng() % 4);  // 8-64 B
    const std::uint64_t per_page = page / stride;
    const std::uint64_t pages = 1 + rng() % 40;
    cachesim::ChaseConfig chase;
    chase.num_pointers = pages * per_page;
    chase.stride_bytes = stride;
    chase.order = cachesim::ChainOrder::sequential;
    chase.measured_traversals = 1;
    const std::string where = testing::seed_banner(seed) +
                              std::to_string(pages) + " pages at stride " +
                              std::to_string(stride);

    cachesim::HierarchyConfig h;
    h.levels = {cachesim::LevelConfig{"L1D", 4096, 64, 4}};
    cachesim::CacheHierarchy caches(h);
    cachesim::TlbHierarchy tlb(cfg);
    chase.warmup_traversals = 0;
    const auto cold = cachesim::run_chase(caches, chase, &tlb);
    EXPECT_EQ(cold.tlb.walks, pages) << where;
    EXPECT_EQ(cold.tlb.l1_hits, pages * (per_page - 1)) << where;
    EXPECT_EQ(cold.tlb.l2_hits, 0u) << where;

    tlb.reset();
    caches.reset();
    chase.warmup_traversals = 1;
    const auto warm = cachesim::run_chase(caches, chase, &tlb);
    const std::uint64_t l2_sets = cfg.l2.entries / cfg.l2.associativity;
    if (pages <= cfg.l1.entries) {
      EXPECT_EQ(warm.tlb.walks, 0u) << where;
      EXPECT_EQ(warm.tlb.l1_hits, warm.total_accesses) << where;
    } else if (pages >= l2_sets * (cfg.l2.associativity + 1)) {
      EXPECT_EQ(warm.tlb.walks, pages) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheVsReference,
                         ::testing::ValuesIn(testing::sweep_seeds(11, 5)));

// --- lstsq vs SVD pseudo-inverse ------------------------------------------------

class LstsqVsSvd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LstsqVsSvd, SolutionsAgreeOnFullRankSystems) {
  const std::uint64_t seed = GetParam();
  const auto a = linalg::random_gaussian(24, 7, seed);
  linalg::Vector b(24);
  std::mt19937_64 rng(seed ^ 0xb0b);
  std::normal_distribution<double> gauss(0.0, 1.0);
  for (auto& v : b) v = gauss(rng);

  const auto qr_solution = linalg::lstsq(a, b).x;

  // Pseudo-inverse solve: x = V * diag(1/sigma) * U^T b.
  const auto svd = linalg::svd(a);
  linalg::Vector utb = linalg::matvec_t(svd.u, b);
  for (std::size_t i = 0; i < utb.size(); ++i) {
    utb[i] /= svd.singular_values[i];
  }
  const linalg::Vector svd_solution = linalg::matvec(svd.v, utb);

  ASSERT_EQ(qr_solution.size(), svd_solution.size());
  for (std::size_t i = 0; i < qr_solution.size(); ++i) {
    EXPECT_NEAR(qr_solution[i], svd_solution[i], 1e-9) << testing::seed_banner(seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LstsqVsSvd,
                         ::testing::ValuesIn(testing::sweep_seeds(101, 6)));

}  // namespace
}  // namespace catalyst
