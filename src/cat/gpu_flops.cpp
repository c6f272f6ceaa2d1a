#include "cat/gpu_flops.hpp"

#include <cmath>

#include "cat/cpu_flops.hpp"  // kFlopsLoopIters
#include "pmu/signals.hpp"

namespace catalyst::cat {

namespace {

constexpr double kOuterReps = 1000.0;

struct GpuKernelKind {
  const char* basis_tag;  // "A", "S", "M", "SQ", "F"
  const char* op_signal;  // signal op fragment
  bool fma;
};

}  // namespace

Benchmark gpu_flops_benchmark() {
  namespace sig = pmu::sig;
  Benchmark bench;
  std::vector<pmu::Activity> acts;  // One per slot, single thread.
  bench.name = "cat-gpu-flops";

  const GpuKernelKind ops[] = {{"A", "add", false},
                               {"S", "sub", false},
                               {"M", "mul", false},
                               {"SQ", "trans", false},
                               {"F", "fma", true}};
  const struct {
    const char* tag;
    const char* prec;
  } precisions[] = {{"H", "f16"}, {"S", "f32"}, {"D", "f64"}};

  const linalg::index_t n_kernels = 15;
  bench.basis.e = linalg::Matrix(n_kernels * 3, n_kernels);

  linalg::index_t k = 0;
  for (const auto& op : ops) {
    for (const auto& p : precisions) {
      bench.basis.labels.push_back(std::string(op.basis_tag) + p.tag);
      bench.basis.ideal_events.push_back(pmu::EventDefinition{
          bench.basis.labels.back(),
          std::string("Ideal event: VALU ") + op.op_signal + " " + p.prec +
              " instructions",
          {{sig::gpu_valu(op.op_signal, p.prec), 1.0}},
          pmu::NoiseModel::none()});
      const double instr_per_block = op.fma ? 1.0 : 2.0;
      for (int loop = 0; loop < 3; ++loop) {
        const double iters = kFlopsLoopIters[loop];
        const double n_instr = iters * instr_per_block;
        bench.basis.e(k * 3 + loop, k) = n_instr;

        KernelSlot slot;
        slot.name = "gpu_flops/" + bench.basis.labels.back() + "/loop" +
                    std::to_string(static_cast<int>(iters));
        slot.normalizer = kOuterReps;

        pmu::Activity act;
        act[sig::gpu_valu(op.op_signal, p.prec)] = n_instr * kOuterReps;
        // Kernel scaffolding: wave launches, scalar-ALU loop control,
        // operand streaming, and cycles -- the GPU analogue of the CPU
        // benchmark's loop-header pollution.
        act[sig::gpu_waves] = 64.0 * kOuterReps;
        act[sig::gpu_salu_total] = (2.0 * iters + 8.0) * kOuterReps;
        act[sig::gpu_valu_total] = (iters + 2.0) * kOuterReps;
        act[sig::gpu_vmem] = (2.0 * iters + 16.0) * kOuterReps;
        act[sig::gpu_smem] = (iters + 4.0) * kOuterReps;
        act[sig::gpu_cycles] =
            std::round(4.0 * n_instr + 2.0 * iters + 120.0) * kOuterReps;
        acts.push_back(std::move(act));
        bench.slots.push_back(std::move(slot));
      }
      ++k;
    }
  }
  bench.set_activities({std::move(acts)});
  return bench;
}

}  // namespace catalyst::cat
