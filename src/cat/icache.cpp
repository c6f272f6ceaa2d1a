#include "cat/icache.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cachesim/cache.hpp"
#include "core/parallel.hpp"
#include "pmu/signals.hpp"

namespace catalyst::cat {

IcacheOptions::IcacheOptions() {
  hierarchy.levels = {
      cachesim::LevelConfig{"L1I", 32u * 1024u, 64, 8},
      cachesim::LevelConfig{"L2", 2u * 1024u * 1024u, 64, 16},
      cachesim::LevelConfig{"L3", 8u * 1024u * 1024u, 64, 16},
  };
}

namespace {

/// Ground truth of one slot: the fetch stream (`lines` sequential fetch
/// lines, looped) replayed on a fresh hierarchy.
pmu::Activity simulate_slot(const IcacheOptions& opt, std::uint64_t lines,
                            double fetches) {
  namespace sig = pmu::sig;
  cachesim::CacheHierarchy hierarchy(opt.hierarchy);
  auto traverse = [&] {
    for (std::uint64_t l = 0; l < lines; ++l) {
      hierarchy.access(l * opt.fetch_bytes);
    }
  };
  for (int t = 0; t < opt.warmup_traversals; ++t) traverse();
  cachesim::LevelStats before[3];
  for (int lvl = 0; lvl < 3; ++lvl) {
    before[lvl] = hierarchy.level(static_cast<std::size_t>(lvl)).stats();
  }
  for (int t = 0; t < opt.measured_traversals; ++t) traverse();

  const auto delta = [&](int lvl, bool hits) {
    const auto& now = hierarchy.level(static_cast<std::size_t>(lvl)).stats();
    return static_cast<double>(
        hits ? now.demand_hits - before[lvl].demand_hits
             : now.demand_misses - before[lvl].demand_misses);
  };
  pmu::Activity act;
  act[sig::l1i_hit] = delta(0, true);
  act[sig::l1i_miss] = delta(0, false);
  act[sig::l2i_hit] = delta(1, true);
  act[sig::l2i_miss] = delta(1, false);
  // Straight-line code: ~4 instructions per fetched 16-byte window.
  act[sig::instructions] = std::round(fetches * 16.0);
  act[sig::uops] = std::round(fetches * 17.5);
  act[sig::branch_cond_retired] = std::round(fetches / 8.0);
  act[sig::branch_cond_taken] = std::round(fetches / 8.0) - 1.0;
  act[sig::cycles] = std::round(4.0 * fetches + 30.0 * act[sig::l1i_miss]);
  return act;
}

}  // namespace

Benchmark icache_benchmark(const IcacheOptions& options) {
  namespace sig = pmu::sig;
  options.hierarchy.validate();
  if (options.hierarchy.levels.size() != 3) {
    throw std::invalid_argument("icache_benchmark: need a 3-level hierarchy");
  }
  if (options.footprints_bytes.empty()) {
    throw std::invalid_argument("icache_benchmark: no footprints");
  }
  if (options.measured_traversals <= 0 || options.warmup_traversals < 0) {
    throw std::invalid_argument("icache_benchmark: bad traversal counts");
  }

  Benchmark bench;
  bench.name = "cat-icache";
  bench.basis.labels = {"L1IM", "L1IH", "L2IH"};
  bench.basis.ideal_events = {
      {"L1IM", "Ideal event: L1I fetch misses",
       {{sig::l1i_miss, 1.0}}, pmu::NoiseModel::none()},
      {"L1IH", "Ideal event: L1I fetch hits",
       {{sig::l1i_hit, 1.0}}, pmu::NoiseModel::none()},
      {"L2IH", "Ideal event: instruction fetches served by L2",
       {{sig::l2i_hit, 1.0}}, pmu::NoiseModel::none()},
  };
  const std::size_t n_slots = options.footprints_bytes.size();
  bench.basis.e = linalg::Matrix(static_cast<linalg::index_t>(n_slots), 3);

  const std::uint64_t l1i_capacity = options.hierarchy.levels[0].size_bytes;
  std::vector<std::uint64_t> lines(n_slots);
  std::vector<double> fetches(n_slots);  // Each slot's normalizer.
  for (std::size_t s = 0; s < n_slots; ++s) {
    const std::uint64_t footprint = options.footprints_bytes[s];
    lines[s] = std::max<std::uint64_t>(1, footprint / options.fetch_bytes);

    // Idealized expectations: footprints within L1I hit it; larger ones
    // miss L1I on (nearly) every fetch.  Whether the L2 serves them is a
    // capacity question answered the same way one level up.
    const auto row = static_cast<linalg::index_t>(s);
    const bool fits_l1 = footprint <= l1i_capacity;
    const bool fits_l2 = footprint <= options.hierarchy.levels[1].size_bytes;
    bench.basis.e(row, 0) = fits_l1 ? 0.0 : 1.0;
    bench.basis.e(row, 1) = fits_l1 ? 1.0 : 0.0;
    bench.basis.e(row, 2) = (!fits_l1 && fits_l2) ? 1.0 : 0.0;

    KernelSlot slot;
    slot.name = "icache/fp" + std::to_string(footprint / 1024) + "K";
    fetches[s] = static_cast<double>(options.measured_traversals) *
                 static_cast<double>(lines[s]);
    slot.normalizer = fetches[s];
    bench.slots.push_back(std::move(slot));
  }

  // Ground truth: one unit per slot, each replaying its fetch stream.
  bench.set_simulation(
      "icache", n_slots,
      [options, lines = std::move(lines),
       fetches = std::move(fetches)](int workers) {
        ActivityTable table(1, std::vector<pmu::Activity>(lines.size()));
        core::parallel_for(lines.size(), workers, [&](std::size_t s) {
          table[0][s] = simulate_slot(options, lines[s], fetches[s]);
        });
        return table;
      });
  return bench;
}

}  // namespace catalyst::cat
