#include "cat/branch.hpp"

#include <cmath>

#include "pmu/signals.hpp"

namespace catalyst::cat {

linalg::Matrix branch_expectation_rows() {
  // Eq. 3, verbatim: columns CE, CR, T, D, M.
  return linalg::Matrix{
      {2.0, 2.0, 1.5, 0.0, 0.0},  // two cond branches, one taken half the time
      {2.0, 2.0, 1.0, 0.0, 0.0},  // two cond branches, one never taken
      {2.0, 2.0, 2.0, 0.0, 0.0},  // two cond branches, both always taken
      {2.0, 2.0, 1.5, 0.0, 0.5},  // as row 1 with an unpredictable branch
      {2.5, 2.5, 1.5, 0.0, 0.5},  // extra retired cond branch, mispredicted
      {2.5, 2.5, 2.0, 0.0, 0.5},  // ... variant with higher taken rate
      {2.5, 2.0, 1.5, 0.0, 0.5},  // speculative cond branch squashed (CE>CR)
      {3.0, 2.5, 1.5, 0.0, 0.5},  // deeper speculation
      {3.0, 2.5, 2.0, 0.0, 0.5},  // deeper speculation, higher taken rate
      {2.0, 2.0, 1.0, 1.0, 0.0},  // adds an unconditional direct branch
      {1.0, 1.0, 1.0, 0.0, 0.0},  // bare loop backedge
  };
}

Benchmark branch_benchmark() {
  namespace sig = pmu::sig;
  Benchmark bench;
  std::vector<pmu::Activity> acts;  // One per slot, single thread.
  bench.name = "cat-branch";
  bench.basis.labels = {"CE", "CR", "T", "D", "M"};
  bench.basis.e = branch_expectation_rows();
  bench.basis.ideal_events = {
      {"CE", "Ideal event: conditional branches executed",
       {{sig::branch_cond_exec, 1.0}}, pmu::NoiseModel::none()},
      {"CR", "Ideal event: conditional branches retired",
       {{sig::branch_cond_retired, 1.0}}, pmu::NoiseModel::none()},
      {"T", "Ideal event: conditional branches taken",
       {{sig::branch_cond_taken, 1.0}}, pmu::NoiseModel::none()},
      {"D", "Ideal event: unconditional (direct) branches",
       {{sig::branch_uncond, 1.0}}, pmu::NoiseModel::none()},
      {"M", "Ideal event: mispredicted branches",
       {{sig::branch_mispredicted, 1.0}}, pmu::NoiseModel::none()},
  };

  const linalg::Matrix& rows = bench.basis.e;
  for (linalg::index_t r = 0; r < rows.rows(); ++r) {
    KernelSlot slot;
    slot.name = "branch/pattern" + std::to_string(r + 1);
    slot.normalizer = kBranchIters;

    const double ce = rows(r, 0) * kBranchIters;
    const double cr = rows(r, 1) * kBranchIters;
    const double t = rows(r, 2) * kBranchIters;
    const double d = rows(r, 3) * kBranchIters;
    const double mi = rows(r, 4) * kBranchIters;

    pmu::Activity act;
    act[sig::branch_cond_exec] = ce;
    act[sig::branch_cond_retired] = cr;
    act[sig::branch_cond_taken] = t;
    act[sig::branch_uncond] = d;
    act[sig::branch_mispredicted] = mi;
    // Scaffolding: condition computation and loop control.
    const double int_ops = 3.0 * kBranchIters + 8.0;
    const double loads = kBranchIters + 4.0;
    act[sig::int_ops] = int_ops;
    act[sig::loads] = loads;
    act[sig::stores] = 2.0;
    act[sig::l1d_demand_hit] = loads;
    const double instructions = cr + d + int_ops + loads + 2.0;
    act[sig::instructions] = std::round(instructions);
    act[sig::uops] = std::round(instructions * 1.08);
    // Mispredictions cost ~15 cycles each on top of the base IPC.
    act[sig::cycles] = std::round(0.9 * instructions + 15.0 * mi + 40.0);
    acts.push_back(std::move(act));
    bench.slots.push_back(std::move(slot));
  }
  bench.set_activities({std::move(acts)});
  return bench;
}

}  // namespace catalyst::cat
