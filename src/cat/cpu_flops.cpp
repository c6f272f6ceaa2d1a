#include "cat/cpu_flops.hpp"

#include <cmath>
#include <stdexcept>

#include "pmu/signals.hpp"

namespace catalyst::cat {

namespace {

// Outer repetitions of every loop: measurements are totals over many
// traversals (large counts, like real CAT runs), and the slot normalizer
// divides them back to the paper's per-iteration values.
constexpr double kOuterReps = 1000.0;

struct KernelKind {
  std::string width;  // "scalar", "128", "256", "512"
  std::string prec;   // "sp", "dp"
  bool fma;
};

// Basis/kernel order from Table I: SP non-FMA widths, DP non-FMA widths,
// SP FMA widths, DP FMA widths.
std::vector<KernelKind> kernel_kinds(const CpuFlopsOptions& options) {
  if (options.widths.empty() || options.precisions.empty()) {
    throw std::invalid_argument("cpu_flops_benchmark: empty Space");
  }
  std::vector<KernelKind> kinds;
  for (bool fma : {false, true}) {
    for (const auto& prec : options.precisions) {
      if (prec != "sp" && prec != "dp") {
        throw std::invalid_argument("cpu_flops_benchmark: bad precision " +
                                    prec);
      }
      for (const auto& width : options.widths) {
        if (width != "scalar" && width != "128" && width != "256" &&
            width != "512") {
          throw std::invalid_argument("cpu_flops_benchmark: bad width " +
                                      width);
        }
        kinds.push_back({width, prec, fma});
      }
    }
  }
  return kinds;
}

}  // namespace

std::string cpu_flops_label(const std::string& width, const std::string& prec,
                            bool fma) {
  std::string base = (prec == "sp") ? "S" : "D";
  base += (width == "scalar") ? "SCAL" : width;
  if (fma) base += "_FMA";
  return base;
}

Benchmark cpu_flops_benchmark(const CpuFlopsOptions& options) {
  namespace sig = pmu::sig;
  Benchmark bench;
  std::vector<pmu::Activity> acts;  // One per slot, single thread.
  bench.name = "cat-cpu-flops";

  const auto kinds = kernel_kinds(options);
  const auto n_kernels = static_cast<linalg::index_t>(kinds.size());
  const linalg::index_t n_slots = n_kernels * 3;

  bench.basis.e = linalg::Matrix(n_slots, n_kernels);
  for (linalg::index_t k = 0; k < n_kernels; ++k) {
    const auto& kind = kinds[static_cast<std::size_t>(k)];
    bench.basis.labels.push_back(
        cpu_flops_label(kind.width, kind.prec, kind.fma));
    bench.basis.ideal_events.push_back(pmu::EventDefinition{
        bench.basis.labels.back(),
        "Ideal event: " + kind.width + "/" + kind.prec +
            (kind.fma ? "/fma" : "/non-fma") + " instructions",
        {{sig::fp(kind.width, kind.prec, kind.fma), 1.0}},
        pmu::NoiseModel::none()});
    // Fig. 1 structure: block repeated 12/24/48 times; two FP instructions
    // per block for non-FMA kernels, one for FMA kernels.
    const double instr_per_block = kind.fma ? 1.0 : 2.0;
    for (int loop = 0; loop < 3; ++loop) {
      const double iters = kFlopsLoopIters[loop];
      const double n_instr = iters * instr_per_block;
      // The ideal event for this kernel kind counts each of its
      // instructions exactly once (per-iteration normalized).
      bench.basis.e(k * 3 + loop, k) = n_instr;

      KernelSlot slot;
      slot.name = "cpu_flops/" + bench.basis.labels.back() + "/loop" +
                  std::to_string(static_cast<int>(iters));
      slot.normalizer = kOuterReps;

      pmu::Activity act;
      act[sig::fp(kind.width, kind.prec, kind.fma)] = n_instr * kOuterReps;
      // Loop-header side effects, the pollution of Section II: integer ops
      // and conditional branches proportional to the iteration count, plus
      // a small constant prologue.
      const double int_ops = 2.0 * iters + 6.0;
      const double cond_retired = iters + 1.0;
      const double cond_taken = iters;         // backedge taken, exit not
      const double cond_exec = iters + 3.0;    // a few squashed speculations
      const double uncond = 2.0;               // call + ret
      const double mispred = 1.0;              // the loop-exit misprediction
      const double loads = iters + 4.0;
      const double stores = 3.0;
      act[sig::int_ops] = int_ops * kOuterReps;
      act[sig::branch_cond_retired] = cond_retired * kOuterReps;
      act[sig::branch_cond_taken] = cond_taken * kOuterReps;
      act[sig::branch_cond_exec] = cond_exec * kOuterReps;
      act[sig::branch_uncond] = uncond * kOuterReps;
      act[sig::branch_mispredicted] = mispred * kOuterReps;
      act[sig::loads] = loads * kOuterReps;
      act[sig::stores] = stores * kOuterReps;
      act[sig::l1d_demand_hit] = loads * kOuterReps;  // resident working set
      const double instructions = n_instr + int_ops + cond_retired + uncond +
                                  loads + stores;
      act[sig::instructions] = instructions * kOuterReps;
      act[sig::uops] = std::round(instructions * 1.12) * kOuterReps;
      act[sig::cycles] =
          std::round(1.7 * n_instr + 1.1 * iters + 35.0) * kOuterReps;
      acts.push_back(std::move(act));
      bench.slots.push_back(std::move(slot));
    }
  }
  bench.set_activities({std::move(acts)});
  return bench;
}

}  // namespace catalyst::cat
