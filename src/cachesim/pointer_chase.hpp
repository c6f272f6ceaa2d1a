// catalyst/cachesim -- CAT-style pointer-chase workload.
//
// The CAT data-cache benchmark walks a cyclic pointer chain laid out over a
// buffer.  The chain order is a seeded random permutation of the buffer's
// cache blocks so that hardware-style next-line prefetching cannot predict
// it; the footprint (chain size * stride) decides which level of the cache
// hierarchy the steady-state walk hits.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/cache.hpp"
#include "cachesim/tlb.hpp"

namespace catalyst::cachesim {

/// Order in which the chain visits the buffer's elements.
enum class ChainOrder {
  /// A seeded random single-cycle permutation (CAT's choice): hardware
  /// next-line prefetchers cannot predict the walk, so hit/miss counts
  /// reflect true capacity behaviour.
  random_cycle,
  /// Ascending addresses: a streaming scan, trivially prefetchable.  Used
  /// by the ablation bench that motivates the random order.
  sequential,
};

/// Parameters of one pointer-chase run.
struct ChaseConfig {
  std::uint64_t num_pointers = 0; ///< Chain length (number of elements).
  std::uint32_t stride_bytes = 64;///< Distance between consecutive elements.
  std::uint64_t base_addr = 0;    ///< Starting byte address of the buffer.
  std::uint64_t seed = 1;         ///< Permutation seed.
  int warmup_traversals = 1;      ///< Full-chain walks before counting.
  int measured_traversals = 1;    ///< Full-chain walks that are counted.
  ChainOrder order = ChainOrder::random_cycle;
};

/// Per-level outcome of a measured chase.
struct ChaseResult {
  std::vector<LevelStats> level_stats; ///< One entry per hierarchy level.
  std::uint64_t memory_accesses = 0;   ///< Demand misses past the last level.
  std::uint64_t total_accesses = 0;    ///< Measured demand accesses issued.
  TlbStats tlb;                        ///< Zeroes when no TLB was supplied.
};

/// The chain's visiting order as element indices: element i lives at byte
/// address base_addr + i * stride_bytes.  random_cycle draws a seeded
/// Sattolo shuffle (a Fisher-Yates variant that guarantees a single cycle
/// covering every element).  Throws std::invalid_argument for an empty
/// chain, a zero stride, or more than UINT32_MAX elements.
std::vector<std::uint32_t> chain_order(const ChaseConfig& config);

/// Demand accesses a chase counts: measured_traversals x chain length.
std::uint64_t measured_accesses(const ChaseConfig& config);

/// Runs the chase against a hierarchy: `warmup_traversals` untimed walks to
/// reach steady state, then `measured_traversals` counted walks.  The
/// result holds only the measured phase's counts (the counters are
/// snapshotted after warmup; cache contents carry over).  When `tlb` is
/// non-null every access is also translated through it and the
/// measured-phase TLB statistics are reported.
ChaseResult run_chase(CacheHierarchy& hierarchy, const ChaseConfig& config,
                      TlbHierarchy* tlb = nullptr);

}  // namespace catalyst::cachesim
