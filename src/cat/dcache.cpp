#include "cat/dcache.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "cachesim/pointer_chase.hpp"
#include "core/parallel.hpp"
#include "pmu/signals.hpp"

namespace catalyst::cat {

namespace {

struct SlotPlan {
  std::string regime;
  std::uint32_t stride = 0;
  std::uint64_t num_pointers = 0;
  // Idealized per-access expectations: L1DM, L1DH, L2DH, L3DH.
  double ideal[4] = {0, 0, 0, 0};
};

std::vector<SlotPlan> plan_slots(const DcacheOptions& opt) {
  opt.hierarchy.validate();
  if (opt.hierarchy.levels.size() != 3) {
    throw std::invalid_argument("dcache_benchmark: need a 3-level hierarchy");
  }
  if (opt.threads <= 0) {
    throw std::invalid_argument("dcache_benchmark: need >= 1 thread");
  }
  std::vector<SlotPlan> plans;
  for (std::uint32_t stride : opt.strides) {
    // Regimes L1 / L2 / L3: footprints at the given fractions of each
    // level's capacity (large enough to dominate the level below).
    for (std::size_t lvl = 0; lvl < 3; ++lvl) {
      for (double frac : opt.level_fractions) {
        SlotPlan p;
        p.regime = opt.hierarchy.levels[lvl].name;
        p.stride = stride;
        const double footprint =
            frac * static_cast<double>(opt.hierarchy.levels[lvl].size_bytes);
        p.num_pointers =
            std::max<std::uint64_t>(4, static_cast<std::uint64_t>(
                                           footprint / stride));
        p.ideal[0] = lvl == 0 ? 0.0 : 1.0;  // L1 demand misses
        p.ideal[1] = lvl == 0 ? 1.0 : 0.0;  // L1 demand hits
        p.ideal[2] = lvl == 1 ? 1.0 : 0.0;  // L2 demand hits
        p.ideal[3] = lvl == 2 ? 1.0 : 0.0;  // L3 demand hits
        plans.push_back(p);
      }
    }
    for (double mult : opt.memory_multiples) {
      SlotPlan p;
      p.regime = "M";
      p.stride = stride;
      const double footprint =
          mult * static_cast<double>(opt.hierarchy.levels[2].size_bytes);
      p.num_pointers = static_cast<std::uint64_t>(footprint / stride);
      p.ideal[0] = 1.0;
      plans.push_back(p);
    }
  }
  return plans;
}

/// The chase of slot `s` on chase thread `t`.  Disjoint buffers: each
/// thread gets its own 1 GiB window.
cachesim::ChaseConfig chase_config(const DcacheOptions& opt,
                                   const SlotPlan& p, std::size_t s, int t) {
  cachesim::ChaseConfig cfg;
  cfg.num_pointers = p.num_pointers;
  cfg.stride_bytes = p.stride;
  cfg.base_addr = static_cast<std::uint64_t>(t) << 30;
  cfg.seed = opt.seed + static_cast<std::uint64_t>(t) * 1000 + s;
  cfg.warmup_traversals = opt.warmup_traversals;
  cfg.measured_traversals = opt.measured_traversals;
  return cfg;
}

/// Ground truth of one (slot, thread) unit: the chase on a fresh private
/// hierarchy (core-private L1/L2 and, for simplicity, an L3 slice) and TLB.
pmu::Activity simulate_unit(const DcacheOptions& opt,
                            const cachesim::ChaseConfig& cfg) {
  namespace sig = pmu::sig;
  cachesim::CacheHierarchy hierarchy(opt.hierarchy);
  cachesim::TlbHierarchy tlb(cachesim::TlbConfig::saphira());
  const auto res = run_chase(hierarchy, cfg, &tlb);

  pmu::Activity act;
  const double accesses = static_cast<double>(res.total_accesses);
  act[sig::l1d_demand_hit] =
      static_cast<double>(res.level_stats[0].demand_hits);
  act[sig::l1d_demand_miss] =
      static_cast<double>(res.level_stats[0].demand_misses);
  act[sig::l2d_demand_hit] =
      static_cast<double>(res.level_stats[1].demand_hits);
  act[sig::l2d_demand_miss] =
      static_cast<double>(res.level_stats[1].demand_misses);
  act[sig::l3d_demand_hit] =
      static_cast<double>(res.level_stats[2].demand_hits);
  act[sig::l3d_demand_miss] = static_cast<double>(res.memory_accesses);
  act[sig::dtlb_hit] = static_cast<double>(res.tlb.l1_hits);
  act[sig::dtlb_miss] = static_cast<double>(res.tlb.l1_misses);
  act[sig::stlb_hit] = static_cast<double>(res.tlb.l2_hits);
  act[sig::dtlb_walk] = static_cast<double>(res.tlb.walks);
  act[sig::loads] = accesses;
  act[sig::instructions] = std::round(2.2 * accesses);
  act[sig::uops] = std::round(2.5 * accesses);
  // Latency-weighted cycle model: hits get cheaper service than misses.
  act[sig::cycles] = std::round(
      4.0 * static_cast<double>(res.level_stats[0].demand_hits) +
      14.0 * static_cast<double>(res.level_stats[1].demand_hits) +
      40.0 * static_cast<double>(res.level_stats[2].demand_hits) +
      180.0 * static_cast<double>(res.memory_accesses));
  return act;
}

}  // namespace

std::vector<DcacheSlotInfo> dcache_slot_info(const DcacheOptions& options) {
  std::vector<DcacheSlotInfo> info;
  for (const auto& p : plan_slots(options)) {
    info.push_back({p.regime, p.stride, p.num_pointers});
  }
  return info;
}

Benchmark dcache_benchmark(const DcacheOptions& options) {
  namespace sig = pmu::sig;
  const auto plans = plan_slots(options);

  Benchmark bench;
  bench.name = "cat-dcache";
  bench.threads = static_cast<std::size_t>(options.threads);
  bench.basis.labels = {"L1DM", "L1DH", "L2DH", "L3DH"};
  bench.basis.ideal_events = {
      {"L1DM", "Ideal event: L1D demand misses",
       {{sig::l1d_demand_miss, 1.0}}, pmu::NoiseModel::none()},
      {"L1DH", "Ideal event: L1D demand hits",
       {{sig::l1d_demand_hit, 1.0}}, pmu::NoiseModel::none()},
      {"L2DH", "Ideal event: L2 demand hits",
       {{sig::l2d_demand_hit, 1.0}}, pmu::NoiseModel::none()},
      {"L3DH", "Ideal event: L3 demand hits",
       {{sig::l3d_demand_hit, 1.0}}, pmu::NoiseModel::none()},
  };
  bench.basis.e =
      linalg::Matrix(static_cast<linalg::index_t>(plans.size()), 4);

  bench.slots.resize(plans.size());
  for (std::size_t s = 0; s < plans.size(); ++s) {
    const auto& p = plans[s];
    for (int c = 0; c < 4; ++c) {
      bench.basis.e(static_cast<linalg::index_t>(s), c) = p.ideal[c];
    }
    auto& slot = bench.slots[s];
    slot.name = "dcache/" + p.regime + "/stride" + std::to_string(p.stride) +
                "/n" + std::to_string(p.num_pointers);
    // Every thread chases the same traversal count.
    slot.normalizer = static_cast<double>(
        cachesim::measured_accesses(chase_config(options, p, s, 0)));
  }

  // One unit per (slot, chase thread); each writes its own table cell.
  // Largest chains first, so the longest units do not start last.
  const std::size_t n_threads = bench.threads;
  std::vector<std::size_t> units(plans.size() * n_threads);
  std::iota(units.begin(), units.end(), std::size_t{0});
  std::stable_sort(units.begin(), units.end(),
                   [&](std::size_t a, std::size_t b) {
                     return plans[a / n_threads].num_pointers >
                            plans[b / n_threads].num_pointers;
                   });
  const std::size_t n_units = units.size();
  bench.set_simulation(
      "dcache", n_units,
      [options, plans, units = std::move(units), n_threads](int workers) {
        ActivityTable table(n_threads,
                            std::vector<pmu::Activity>(plans.size()));
        core::parallel_for(units.size(), workers, [&](std::size_t u) {
          const std::size_t s = units[u] / n_threads;
          const int t = static_cast<int>(units[u] % n_threads);
          table[static_cast<std::size_t>(t)][s] =
              simulate_unit(options, chase_config(options, plans[s], s, t));
        });
        return table;
      });
  return bench;
}

}  // namespace catalyst::cat
