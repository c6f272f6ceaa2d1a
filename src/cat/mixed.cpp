#include "cat/mixed.hpp"

#include <random>
#include <stdexcept>

namespace catalyst::cat {

double ground_truth_metric(const ExpectationBasis& basis,
                           std::span<const double> signature,
                           const pmu::Activity& activity) {
  if (signature.size() != basis.ideal_events.size()) {
    throw std::invalid_argument(
        "ground_truth_metric: signature/basis dimension mismatch");
  }
  double value = 0.0;
  for (std::size_t k = 0; k < signature.size(); ++k) {
    if (signature[k] == 0.0) continue;
    value += signature[k] * basis.ideal_events[k].ideal(activity);
  }
  return value;
}

std::vector<MixedWorkload> random_mixed_workloads(const Benchmark& benchmark,
                                                  std::size_t count,
                                                  std::uint64_t seed,
                                                  int max_weight,
                                                  double density) {
  if (max_weight < 1) {
    throw std::invalid_argument("random_mixed_workloads: max_weight < 1");
  }
  if (density <= 0.0 || density > 1.0) {
    throw std::invalid_argument("random_mixed_workloads: bad density");
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::uniform_int_distribution<int> weight(1, max_weight);

  const std::vector<pmu::Activity>& acts = benchmark.activities().front();
  std::vector<MixedWorkload> workloads;
  workloads.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    MixedWorkload mix;
    mix.name = benchmark.name + "/mix" + std::to_string(w);
    mix.weights.assign(benchmark.slots.size(), 0.0);
    bool any = false;
    for (std::size_t s = 0; s < benchmark.slots.size(); ++s) {
      if (uni(rng) > density) continue;
      const double wgt = weight(rng);
      mix.weights[s] = wgt;
      any = true;
      // Single-thread activity of the slot, scaled by the weight.
      for (const auto& [signal, value] : acts[s]) {
        mix.activity[signal] += wgt * value;
      }
    }
    if (!any) {
      // Guarantee a non-empty mix: take the first slot once.
      mix.weights[0] = 1.0;
      for (const auto& [signal, value] : acts[0]) {
        mix.activity[signal] += value;
      }
    }
    workloads.push_back(std::move(mix));
  }
  return workloads;
}

}  // namespace catalyst::cat
