// Property tests on the end-to-end pipeline: determinism, thread
// invariance, and structural invariants that must hold for ANY benchmark /
// machine combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

#include "seed_util.hpp"

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "linalg/svd.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::core {
namespace {

struct Combo {
  const char* machine;
  const char* benchmark;
};

class PipelineInvariants : public ::testing::TestWithParam<Combo> {
 protected:
  static pmu::Machine make_machine(const std::string& name) {
    if (name == "saphira") return pmu::saphira_cpu();
    if (name == "tempest") return pmu::tempest_gpu();
    return pmu::vesuvio_cpu();
  }
  static cat::Benchmark make_benchmark(const std::string& name) {
    if (name == "cpu_flops") return cat::cpu_flops_benchmark();
    if (name == "gpu_flops") return cat::gpu_flops_benchmark();
    return cat::branch_benchmark();
  }
  static std::vector<MetricSignature> make_signatures(
      const std::string& name) {
    if (name == "cpu_flops") return cpu_flops_signatures();
    if (name == "gpu_flops") return gpu_flops_signatures();
    return branch_signatures();
  }

  PipelineResult run() const {
    const auto combo = GetParam();
    return run_pipeline(make_machine(combo.machine),
                        make_benchmark(combo.benchmark),
                        make_signatures(combo.benchmark));
  }
};

TEST_P(PipelineInvariants, StagesOnlyShrinkTheEventSet) {
  const auto result = run();
  EXPECT_LE(result.noise.kept.size(), result.all_event_names.size());
  EXPECT_LE(result.projection.x_event_names.size(),
            result.noise.kept.size());
  EXPECT_LE(result.xhat_events.size(),
            result.projection.x_event_names.size());
}

TEST_P(PipelineInvariants, SelectionBoundedByBasisDimension) {
  const auto result = run();
  EXPECT_LE(static_cast<linalg::index_t>(result.xhat_events.size()),
            result.xhat.rows());
}

TEST_P(PipelineInvariants, XhatHasFullColumnRank) {
  const auto result = run();
  if (result.xhat.cols() == 0) GTEST_SKIP();
  EXPECT_EQ(linalg::numerical_rank(result.xhat, 1e-8), result.xhat.cols());
}

TEST_P(PipelineInvariants, SelectedEventsAreDistinct) {
  const auto result = run();
  std::set<std::string> uniq(result.xhat_events.begin(),
                             result.xhat_events.end());
  EXPECT_EQ(uniq.size(), result.xhat_events.size());
}

TEST_P(PipelineInvariants, EveryMetricHasOneTermPerSelectedEvent) {
  const auto result = run();
  for (const auto& m : result.metrics) {
    EXPECT_EQ(m.terms.size(), result.xhat_events.size()) << m.metric_name;
    EXPECT_GE(m.backward_error, 0.0);
    // Eq. 5 is bounded by ||s|| / ||s|| = 1 at the zero solution; the
    // least-squares solution can only do better (up to roundoff).
    EXPECT_LE(m.backward_error, 1.0 + 1e-9) << m.metric_name;
  }
}

TEST_P(PipelineInvariants, DeterministicAcrossRuns) {
  const auto r1 = run();
  const auto r2 = run();
  EXPECT_EQ(r1.xhat_events, r2.xhat_events);
  ASSERT_EQ(r1.metrics.size(), r2.metrics.size());
  for (std::size_t i = 0; i < r1.metrics.size(); ++i) {
    EXPECT_EQ(r1.metrics[i].backward_error, r2.metrics[i].backward_error);
    for (std::size_t t = 0; t < r1.metrics[i].terms.size(); ++t) {
      EXPECT_EQ(r1.metrics[i].terms[t].coefficient,
                r2.metrics[i].terms[t].coefficient);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, PipelineInvariants,
    ::testing::Values(Combo{"saphira", "cpu_flops"},
                      Combo{"saphira", "branch"},
                      Combo{"vesuvio", "cpu_flops"},
                      Combo{"vesuvio", "branch"},
                      Combo{"tempest", "gpu_flops"}),
    [](const ::testing::TestParamInfo<Combo>& param_info) {
      return std::string(param_info.param.machine) + "_" +
             param_info.param.benchmark;
    });

TEST(PipelineInvariance, SlotPermutationDoesNotChangeSelection) {
  // Reversing the order of benchmark slots permutes E's rows and every
  // measurement vector identically; the selected events and metric
  // solutions must not change.
  const pmu::Machine machine = pmu::saphira_cpu();
  cat::Benchmark bench = cat::branch_benchmark();
  cat::Benchmark reversed = bench;
  std::reverse(reversed.slots.begin(), reversed.slots.end());
  cat::ActivityTable reversed_acts = bench.activities();
  std::reverse(reversed_acts[0].begin(), reversed_acts[0].end());
  reversed.set_activities(std::move(reversed_acts));
  for (linalg::index_t r = 0; r < bench.basis.e.rows(); ++r) {
    reversed.basis.e.set_row(bench.basis.e.rows() - 1 - r,
                             bench.basis.e.row_copy(r));
  }
  const auto a = run_pipeline(machine, bench, branch_signatures());
  const auto b = run_pipeline(machine, reversed, branch_signatures());
  EXPECT_EQ(a.xhat_events, b.xhat_events);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_NEAR(a.metrics[i].backward_error, b.metrics[i].backward_error,
                1e-12);
    for (std::size_t t = 0; t < a.metrics[i].terms.size(); ++t) {
      EXPECT_NEAR(a.metrics[i].terms[t].coefficient,
                  b.metrics[i].terms[t].coefficient, 1e-9);
    }
  }
}

// The reversal above is one fixed permutation; this sweeps seeded RANDOM
// slot permutations (replayable via CATALYST_SEED, see seed_util.hpp).
class RandomSlotPermutation : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomSlotPermutation, AnySlotOrderKeepsSelectionAndMetrics) {
  const std::uint64_t seed = GetParam();
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::branch_benchmark();
  std::vector<std::size_t> perm(bench.slots.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);

  cat::Benchmark permuted = bench;
  cat::ActivityTable permuted_acts = bench.activities();
  for (std::size_t i = 0; i < perm.size(); ++i) {
    permuted.slots[i] = bench.slots[perm[i]];
    permuted_acts[0][i] = bench.activities()[0][perm[i]];
    permuted.basis.e.set_row(
        static_cast<linalg::index_t>(i),
        bench.basis.e.row_copy(static_cast<linalg::index_t>(perm[i])));
  }
  permuted.set_activities(std::move(permuted_acts));

  const auto a = run_pipeline(machine, bench, branch_signatures());
  const auto b = run_pipeline(machine, permuted, branch_signatures());
  EXPECT_EQ(a.xhat_events, b.xhat_events) << testing::seed_banner(seed);
  ASSERT_EQ(a.metrics.size(), b.metrics.size()) << testing::seed_banner(seed);
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_NEAR(a.metrics[i].backward_error, b.metrics[i].backward_error,
                1e-12)
        << testing::seed_banner(seed) << a.metrics[i].metric_name;
    for (std::size_t t = 0; t < a.metrics[i].terms.size(); ++t) {
      EXPECT_NEAR(a.metrics[i].terms[t].coefficient,
                  b.metrics[i].terms[t].coefficient, 1e-9)
          << testing::seed_banner(seed) << a.metrics[i].metric_name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSlotPermutation,
                         ::testing::ValuesIn(testing::sweep_seeds(1, 8)));

TEST(PipelineThreading, CollectionThreadsDoNotChangeResults) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::branch_benchmark();
  PipelineOptions serial;
  PipelineOptions threaded;
  threaded.collection_threads = 4;
  const auto r1 = run_pipeline(machine, bench, branch_signatures(), serial);
  const auto r2 = run_pipeline(machine, bench, branch_signatures(), threaded);
  EXPECT_EQ(r1.measurements, r2.measurements);
  EXPECT_EQ(r1.xhat_events, r2.xhat_events);
}

TEST(PipelineValidation, RejectsBadOptions) {
  const pmu::Machine machine = pmu::vesuvio_cpu();
  const cat::Benchmark bench = cat::branch_benchmark();
  PipelineOptions opt;
  opt.repetitions = 1;
  EXPECT_THROW(run_pipeline(machine, bench, branch_signatures(), opt),
               std::invalid_argument);
  cat::Benchmark empty;
  EXPECT_THROW(run_pipeline(machine, empty, branch_signatures()),
               std::invalid_argument);
}

TEST(PipelineAccessors, AveragedMeasurementLookup) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::branch_benchmark();
  const auto result = run_pipeline(machine, bench, branch_signatures());
  const auto found =
      result.averaged_measurement("BR_INST_RETIRED:COND");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->size(), bench.slots.size());
  EXPECT_FALSE(result.averaged_measurement("NOT_AN_EVENT").has_value());
}

}  // namespace
}  // namespace catalyst::core
