#include "cat/gpu_dcache.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cachesim/cache.hpp"
#include "cachesim/pointer_chase.hpp"
#include "core/parallel.hpp"
#include "pmu/signals.hpp"

namespace catalyst::cat {

namespace {

/// The chase of slot `s`.
cachesim::ChaseConfig chase_config(const GpuDcacheOptions& opt,
                                   std::size_t s) {
  cachesim::ChaseConfig chase;
  chase.num_pointers =
      std::max<std::uint64_t>(4, opt.footprints_bytes[s] / opt.stride_bytes);
  chase.stride_bytes = opt.stride_bytes;
  chase.seed = opt.seed + static_cast<std::uint64_t>(s);
  chase.warmup_traversals = opt.warmup_traversals;
  chase.measured_traversals = opt.measured_traversals;
  return chase;
}

/// Ground truth of one slot: its chase on a fresh single-level TCC.
pmu::Activity simulate_slot(const GpuDcacheOptions& opt, std::size_t s) {
  namespace sig = pmu::sig;
  cachesim::HierarchyConfig hierarchy_config;
  hierarchy_config.levels = {opt.tcc};
  cachesim::CacheHierarchy tcc(hierarchy_config);
  const auto res = run_chase(tcc, chase_config(opt, s));

  pmu::Activity act;
  act[sig::gpu_tcc_hit] = static_cast<double>(res.level_stats[0].demand_hits);
  act[sig::gpu_tcc_miss] =
      static_cast<double>(res.level_stats[0].demand_misses);
  // Kernel scaffolding, as in the GPU-FLOPs benchmark.
  const double accesses = static_cast<double>(res.total_accesses);
  act[sig::gpu_vmem] = accesses;
  act[sig::gpu_waves] = 64.0;
  act[sig::gpu_salu_total] = std::round(0.3 * accesses);
  act[sig::gpu_cycles] = std::round(
      40.0 * static_cast<double>(res.level_stats[0].demand_hits) +
      300.0 * static_cast<double>(res.level_stats[0].demand_misses));
  return act;
}

}  // namespace

Benchmark gpu_dcache_benchmark(const GpuDcacheOptions& options) {
  namespace sig = pmu::sig;
  options.tcc.validate();
  if (options.footprints_bytes.empty()) {
    throw std::invalid_argument("gpu_dcache_benchmark: no footprints");
  }
  if (options.measured_traversals <= 0 || options.warmup_traversals < 0) {
    throw std::invalid_argument("gpu_dcache_benchmark: bad traversal counts");
  }

  Benchmark bench;
  bench.name = "cat-gpu-dcache";
  bench.basis.labels = {"TCCH", "TCCM"};
  bench.basis.ideal_events = {
      {"TCCH", "Ideal event: TCC (GPU L2) hits",
       {{sig::gpu_tcc_hit, 1.0}}, pmu::NoiseModel::none()},
      {"TCCM", "Ideal event: TCC (GPU L2) misses",
       {{sig::gpu_tcc_miss, 1.0}}, pmu::NoiseModel::none()},
  };
  const std::size_t n_slots = options.footprints_bytes.size();
  bench.basis.e = linalg::Matrix(static_cast<linalg::index_t>(n_slots), 2);

  for (std::size_t s = 0; s < n_slots; ++s) {
    const std::uint64_t footprint = options.footprints_bytes[s];
    const bool fits = footprint <= options.tcc.size_bytes;
    const auto row = static_cast<linalg::index_t>(s);
    bench.basis.e(row, 0) = fits ? 1.0 : 0.0;
    bench.basis.e(row, 1) = fits ? 0.0 : 1.0;

    KernelSlot slot;
    slot.name = "gpu_dcache/fp" + std::to_string(footprint / (1024 * 1024)) +
                "M";
    slot.normalizer = static_cast<double>(
        cachesim::measured_accesses(chase_config(options, s)));
    bench.slots.push_back(std::move(slot));
  }

  // Ground truth: one unit per slot, each chasing its own buffer.
  bench.set_simulation(
      "gpu_dcache", n_slots, [options, n_slots](int workers) {
        ActivityTable table(1, std::vector<pmu::Activity>(n_slots));
        core::parallel_for(n_slots, workers, [&](std::size_t s) {
          table[0][s] = simulate_slot(options, s);
        });
        return table;
      });
  return bench;
}

}  // namespace catalyst::cat
