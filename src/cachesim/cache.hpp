// catalyst/cachesim -- set-associative LRU cache level and hierarchy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cachesim/config.hpp"

namespace catalyst::cachesim {

/// Demand-access statistics for one level.
struct LevelStats {
  std::uint64_t demand_hits = 0;
  std::uint64_t demand_misses = 0;
  std::uint64_t prefetches_issued = 0;  ///< Lines installed by prefetching.
  std::uint64_t accesses() const { return demand_hits + demand_misses; }
};

/// One set-associative cache level with true-LRU replacement.
///
/// Addresses are byte addresses; the level indexes by
/// (addr / line_bytes) % num_sets and tags by addr / line_bytes.
///
/// Each set is a recency-ordered array of line tags, most recent first,
/// plus a fill count: a hit moves its tag to the front, a miss inserts at
/// the front and drops the last tag once the set is full.  True-LRU hit and
/// miss counts depend only on that order, never on which way holds a line,
/// so no per-way stamps or valid bits are kept, and reset() only zeroes the
/// fill counts.
class CacheLevel {
 public:
  explicit CacheLevel(const LevelConfig& config);

  const LevelConfig& config() const noexcept { return config_; }
  const LevelStats& stats() const noexcept { return stats_; }

  /// Demand access.  Returns true on hit.  On miss the line is installed
  /// (allocate-on-miss), possibly evicting the LRU line of its set.  Under
  /// the next_line policy a miss also installs the next `prefetch_degree`
  /// lines that are absent; lines already present are not refreshed.
  bool access(std::uint64_t addr);

  /// Probes without updating LRU or stats (for assertions in tests).
  bool contains(std::uint64_t addr) const;

  /// Installs a line (or refreshes it to most recent) without counting a
  /// demand access.
  void install(std::uint64_t addr);

  /// Invalidates everything and zeroes statistics.
  void reset();

 private:
  std::uint64_t* set_of(std::uint64_t line) noexcept {
    return tags_.get() + (line & set_mask_) * ways_;
  }
  const std::uint64_t* set_of(std::uint64_t line) const noexcept {
    return tags_.get() + (line & set_mask_) * ways_;
  }
  std::uint32_t& fill_of(std::uint64_t line) noexcept {
    return fill_[line & set_mask_];
  }

  /// Position of `line` in its set's recency order, or the fill count when
  /// absent.
  std::uint32_t find(std::uint64_t line) const noexcept;
  /// Makes `line` its set's most recent tag, dropping the LRU tag of a full
  /// set when `line` was absent; returns true if it was present.
  bool touch(std::uint64_t line) noexcept;

  LevelConfig config_;
  std::uint64_t set_mask_;
  std::uint32_t line_shift_;
  std::uint32_t ways_;
  std::unique_ptr<std::uint64_t[]> tags_;  // sets * ways, set-major, MRU first
  std::vector<std::uint32_t> fill_;  // valid tags per set
  LevelStats stats_;
};

/// A multi-level hierarchy with non-inclusive, allocate-everywhere fills:
/// a demand access probes L1, then L2, ... until it hits (or misses to
/// memory), installing the line into every level it missed in.
///
/// This matches the counting semantics of the events the paper analyzes:
/// MEM_LOAD_RETIRED:L1_HIT / L1_MISS, L2 demand hits, L3 hits -- each level
/// only sees the demand stream filtered by the levels above it.
class CacheHierarchy {
 public:
  explicit CacheHierarchy(const HierarchyConfig& config);

  std::size_t num_levels() const noexcept { return levels_.size(); }
  const CacheLevel& level(std::size_t i) const { return levels_.at(i); }

  /// Result of a demand access: index of the level that hit, or nullopt if
  /// the access missed all the way to memory.
  std::optional<std::size_t> access(std::uint64_t addr);

  /// Total demand accesses that missed every level (served by memory).
  std::uint64_t memory_accesses() const noexcept { return memory_accesses_; }

  void reset();

 private:
  std::vector<CacheLevel> levels_;
  std::uint64_t memory_accesses_ = 0;
};

}  // namespace catalyst::cachesim
