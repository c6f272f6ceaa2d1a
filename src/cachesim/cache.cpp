#include "cachesim/cache.hpp"

#include <algorithm>
#include <bit>
#include <memory>

namespace catalyst::cachesim {

CacheLevel::CacheLevel(const LevelConfig& config) : config_(config) {
  config_.validate();
  const std::uint64_t sets = config_.num_sets();
  set_mask_ = sets - 1;
  line_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(config_.line_bytes)));
  ways_ = config_.associativity;
  // Tags past a set's fill count are never read: no need to zero them.
  tags_ = std::make_unique_for_overwrite<std::uint64_t[]>(sets * ways_);
  fill_.assign(sets, 0);
}

std::uint32_t CacheLevel::find(std::uint64_t line) const noexcept {
  const std::uint64_t* set = set_of(line);
  const std::uint32_t fill = fill_[line & set_mask_];
  std::uint32_t pos = 0;
  while (pos < fill && set[pos] != line) ++pos;
  return pos;
}

bool CacheLevel::touch(std::uint64_t line) noexcept {
  // One pass: shift each scanned tag one place back until `line` turns up
  // (a hit: its old slot is overwritten) or the set ends (a miss: the
  // last tag falls off a full set, or fills the next free way).
  std::uint64_t* set = set_of(line);
  std::uint32_t& fill = fill_of(line);
  std::uint64_t carry = line;
  for (std::uint32_t pos = 0; pos < fill; ++pos) {
    const std::uint64_t tag = set[pos];
    set[pos] = carry;
    if (tag == line) return true;
    carry = tag;
  }
  if (fill < ways_) set[fill++] = carry;
  return false;
}

bool CacheLevel::access(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  if (touch(line)) {
    ++stats_.demand_hits;
    return true;
  }
  ++stats_.demand_misses;
  if (config_.prefetch == PrefetchPolicy::next_line) {
    // Install the next `prefetch_degree` sequential lines (if absent)
    // without touching the demand statistics -- a simple hardware streamer.
    for (std::uint32_t d = 1; d <= config_.prefetch_degree; ++d) {
      const std::uint64_t next = line + d;
      if (find(next) == fill_of(next)) {
        touch(next);
        ++stats_.prefetches_issued;
      }
    }
  }
  return false;
}

bool CacheLevel::contains(std::uint64_t addr) const {
  const std::uint64_t line = addr >> line_shift_;
  return find(line) < fill_[line & set_mask_];
}

void CacheLevel::install(std::uint64_t addr) { touch(addr >> line_shift_); }

void CacheLevel::reset() {
  std::fill(fill_.begin(), fill_.end(), 0u);
  stats_ = LevelStats{};
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig& config) {
  config.validate();
  levels_.reserve(config.levels.size());
  for (const auto& lc : config.levels) levels_.emplace_back(lc);
}

std::optional<std::size_t> CacheHierarchy::access(std::uint64_t addr) {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].access(addr)) {
      return i;
    }
  }
  ++memory_accesses_;
  return std::nullopt;
}

void CacheHierarchy::reset() {
  for (auto& l : levels_) l.reset();
  memory_accesses_ = 0;
}

}  // namespace catalyst::cachesim
