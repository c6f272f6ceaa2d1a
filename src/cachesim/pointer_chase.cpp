#include "cachesim/pointer_chase.hpp"

#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>

namespace catalyst::cachesim {

std::vector<std::uint32_t> chain_order(const ChaseConfig& config) {
  if (config.num_pointers == 0) {
    throw std::invalid_argument("chain_order: empty chain");
  }
  if (config.stride_bytes == 0) {
    throw std::invalid_argument("chain_order: zero stride");
  }
  if (config.num_pointers > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("chain_order: chain longer than UINT32_MAX");
  }
  std::vector<std::uint32_t> order(config.num_pointers);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  if (config.order == ChainOrder::random_cycle) {
    // Sattolo's algorithm: a uniform random cyclic permutation.  Walking
    // the resulting order visits every element exactly once per traversal
    // with no short cycles, mirroring how CAT builds its chase buffer.
    std::mt19937_64 rng(config.seed);
    for (std::uint64_t i = config.num_pointers - 1; i > 0; --i) {
      std::uniform_int_distribution<std::uint64_t> pick(0, i - 1);
      std::swap(order[i], order[pick(rng)]);
    }
  }
  return order;
}

std::uint64_t measured_accesses(const ChaseConfig& config) {
  return static_cast<std::uint64_t>(config.measured_traversals) *
         config.num_pointers;
}

ChaseResult run_chase(CacheHierarchy& hierarchy, const ChaseConfig& config,
                      TlbHierarchy* tlb) {
  if (config.warmup_traversals < 0 || config.measured_traversals <= 0) {
    throw std::invalid_argument("run_chase: bad traversal counts");
  }
  // One u32 index per element; addresses are formed on the fly, so a chase
  // holds 4 bytes per element instead of an address array as well.
  const std::vector<std::uint32_t> chain = chain_order(config);
  const std::uint64_t base = config.base_addr;
  const std::uint64_t stride = config.stride_bytes;
  const auto traverse = [&] {
    for (const std::uint32_t idx : chain) {
      const std::uint64_t a = base + idx * stride;
      if (tlb) tlb->access(a);
      hierarchy.access(a);
    }
  };

  // Warm up to steady state, snapshot the counters, then diff after the
  // measured traversals; this leaves cache contents untouched between the
  // two phases.
  for (int t = 0; t < config.warmup_traversals; ++t) traverse();
  std::vector<LevelStats> before(hierarchy.num_levels());
  for (std::size_t i = 0; i < hierarchy.num_levels(); ++i) {
    before[i] = hierarchy.level(i).stats();
  }
  const std::uint64_t mem_before = hierarchy.memory_accesses();
  const TlbStats tlb_before = tlb ? tlb->stats() : TlbStats{};

  for (int t = 0; t < config.measured_traversals; ++t) traverse();

  ChaseResult res;
  res.level_stats.resize(hierarchy.num_levels());
  for (std::size_t i = 0; i < hierarchy.num_levels(); ++i) {
    const LevelStats& now = hierarchy.level(i).stats();
    res.level_stats[i].demand_hits = now.demand_hits - before[i].demand_hits;
    res.level_stats[i].demand_misses =
        now.demand_misses - before[i].demand_misses;
  }
  res.memory_accesses = hierarchy.memory_accesses() - mem_before;
  res.total_accesses = measured_accesses(config);
  if (tlb) {
    const TlbStats& now = tlb->stats();
    res.tlb.l1_hits = now.l1_hits - tlb_before.l1_hits;
    res.tlb.l1_misses = now.l1_misses - tlb_before.l1_misses;
    res.tlb.l2_hits = now.l2_hits - tlb_before.l2_hits;
    res.tlb.walks = now.walks - tlb_before.walks;
  }
  return res;
}

}  // namespace catalyst::cachesim
