// Tests for mixed workloads, ideal-event consistency, and the metric
// validation loop (core/validate).
#include "core/validate.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cat/cat.hpp"
#include "core/pipeline.hpp"
#include "core/signatures.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::core {
namespace {

// --- ideal-event consistency: E is the ideal events measured over slots ----

TEST(IdealEvents, CpuFlopsBasisMatchesIdealEventMeasurements) {
  const auto b = cat::cpu_flops_benchmark();
  ASSERT_EQ(b.basis.ideal_events.size(), 16u);
  for (std::size_t s = 0; s < b.slots.size(); ++s) {
    const auto& act = b.activities()[0][s];
    for (std::size_t k = 0; k < b.basis.ideal_events.size(); ++k) {
      EXPECT_DOUBLE_EQ(
          b.basis.ideal_events[k].ideal(act) / b.slots[s].normalizer,
          b.basis.e(static_cast<linalg::index_t>(s),
                    static_cast<linalg::index_t>(k)))
          << "slot " << s << " ideal " << b.basis.labels[k];
    }
  }
}

TEST(IdealEvents, BranchBasisMatchesIdealEventMeasurements) {
  const auto b = cat::branch_benchmark();
  ASSERT_EQ(b.basis.ideal_events.size(), 5u);
  for (std::size_t s = 0; s < b.slots.size(); ++s) {
    const auto& act = b.activities()[0][s];
    for (std::size_t k = 0; k < 5; ++k) {
      EXPECT_DOUBLE_EQ(
          b.basis.ideal_events[k].ideal(act) / b.slots[s].normalizer,
          b.basis.e(static_cast<linalg::index_t>(s),
                    static_cast<linalg::index_t>(k)));
    }
  }
}

TEST(IdealEvents, DcacheBasisApproximatesIdealEventMeasurements) {
  // The cache basis is idealized (exact 0/1); real chases deviate by a few
  // percent near capacity boundaries.
  cat::DcacheOptions opt;
  opt.threads = 1;
  opt.hierarchy = cachesim::HierarchyConfig::tiny();
  opt.strides = {32};
  const auto b = cat::dcache_benchmark(opt);
  for (std::size_t s = 0; s < b.slots.size(); ++s) {
    const auto& act = b.activities()[0][s];
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(
          b.basis.ideal_events[k].ideal(act) / b.slots[s].normalizer,
          b.basis.e(static_cast<linalg::index_t>(s),
                    static_cast<linalg::index_t>(k)),
          0.25)
          << b.slots[s].name << " / " << b.basis.labels[k];
    }
  }
}

// --- ground truth ---------------------------------------------------------------

TEST(GroundTruth, LinearInSignatureAndActivity) {
  const auto b = cat::cpu_flops_benchmark();
  pmu::Activity act{{pmu::sig::fp("256", "dp", true), 10.0},
                    {pmu::sig::fp("scalar", "dp", false), 4.0}};
  // DP Ops signature: scalar counts 1/op, 256-FMA counts 8 ops/instr.
  const auto sigs = cpu_flops_signatures();
  const auto& dp_ops = sigs[4];
  EXPECT_DOUBLE_EQ(
      cat::ground_truth_metric(b.basis, dp_ops.coordinates, act),
      10.0 * 8.0 + 4.0 * 1.0);
}

TEST(GroundTruth, DimensionMismatchThrows) {
  const auto b = cat::branch_benchmark();
  std::vector<double> wrong{1, 0};
  EXPECT_THROW(cat::ground_truth_metric(b.basis, wrong, {}),
               std::invalid_argument);
}

// --- mixed workloads ---------------------------------------------------------------

TEST(MixedWorkloads, DeterministicAndNonEmpty) {
  const auto b = cat::cpu_flops_benchmark();
  auto m1 = cat::random_mixed_workloads(b, 5, 42);
  auto m2 = cat::random_mixed_workloads(b, 5, 42);
  ASSERT_EQ(m1.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(m1[i].weights, m2[i].weights);
    EXPECT_FALSE(m1[i].activity.empty());
  }
  auto m3 = cat::random_mixed_workloads(b, 5, 43);
  EXPECT_NE(m1[0].weights, m3[0].weights);
}

TEST(MixedWorkloads, ActivityIsWeightedSuperposition) {
  const auto b = cat::branch_benchmark();
  auto mixes = cat::random_mixed_workloads(b, 3, 7);
  for (const auto& mix : mixes) {
    // Reconstruct the expected cond-retired count from the weights.
    double expected = 0.0;
    for (std::size_t s = 0; s < b.slots.size(); ++s) {
      const auto& act = b.activities()[0][s];
      auto it = act.find(pmu::sig::branch_cond_retired);
      if (it != act.end()) expected += mix.weights[s] * it->second;
    }
    EXPECT_DOUBLE_EQ(mix.activity.at(pmu::sig::branch_cond_retired),
                     expected);
  }
}

TEST(MixedWorkloads, RejectsBadParameters) {
  const auto b = cat::branch_benchmark();
  EXPECT_THROW(cat::random_mixed_workloads(b, 1, 1, 0), std::invalid_argument);
  EXPECT_THROW(cat::random_mixed_workloads(b, 1, 1, 5, 0.0),
               std::invalid_argument);
  EXPECT_THROW(cat::random_mixed_workloads(b, 1, 1, 5, 1.5),
               std::invalid_argument);
}

// --- validation end to end --------------------------------------------------------

TEST(Validation, ComposableCpuMetricsValidateExactly) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const auto bench = cat::cpu_flops_benchmark();
  const auto result =
      run_pipeline(machine, bench, cpu_flops_signatures());
  const auto reports = validate_all(machine, bench, result.metrics,
                                    cpu_flops_signatures(), 8, 2024);
  // Four composable metrics (SP/DP x Instrs/Ops).
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& r : reports) {
    EXPECT_LT(r.max_relative_error, 1e-9) << r.metric_name;
    EXPECT_EQ(r.samples.size(), 8u);
  }
}

TEST(Validation, BranchMetricsValidateExactly) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const auto bench = cat::branch_benchmark();
  const auto result =
      run_pipeline(machine, bench, branch_signatures());
  const auto reports = validate_all(machine, bench, result.metrics,
                                    branch_signatures(), 6, 99);
  ASSERT_EQ(reports.size(), 6u);  // all but "Executed"
  for (const auto& r : reports) {
    EXPECT_LT(r.max_relative_error, 1e-9) << r.metric_name;
  }
}

TEST(Validation, NoisyCacheMetricsValidateWithinPercent) {
  const pmu::Machine machine = pmu::saphira_cpu();
  cat::DcacheOptions dopt;
  dopt.threads = 2;
  const auto bench = cat::dcache_benchmark(dopt);
  PipelineOptions opt;
  opt.tau = 1e-1;
  opt.alpha = 5e-2;
  opt.projection_max_error = 1e-1;
  opt.fitness_threshold = 5e-2;
  const auto result = run_pipeline(machine, bench, dcache_signatures(), opt);
  const auto reports = validate_all(machine, bench, result.metrics,
                                    dcache_signatures(), 6, 7);
  ASSERT_EQ(reports.size(), 6u);
  for (const auto& r : reports) {
    // Cache events carry percent-level noise; validation must stay within
    // a few percent of ground truth.
    EXPECT_LT(r.max_relative_error, 0.10) << r.metric_name;
  }
}

TEST(Validation, MisdefinedMetricIsCaught) {
  // Hand-build a WRONG preset (claims DP Ops = 1x scalar event only) and
  // check validation flags it with a large error on FMA-heavy mixes.
  const pmu::Machine machine = pmu::saphira_cpu();
  const auto bench = cat::cpu_flops_benchmark();
  PresetDefinition wrong;
  wrong.symbol = "BAD_DP_OPS";
  wrong.description = "deliberately wrong DP Ops";
  wrong.terms = {{"FP_ARITH_INST_RETIRED:SCALAR_DOUBLE", 1.0}};
  const auto sigs = cpu_flops_signatures();
  const auto mixes = cat::random_mixed_workloads(bench, 6, 55);
  const auto report = validate_metric(machine, bench, wrong,
                                      sigs[4].coordinates, mixes);
  EXPECT_GT(report.max_relative_error, 0.3);
}

TEST(Validation, ThrowsOnUnregistrablePreset) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const auto bench = cat::cpu_flops_benchmark();
  PresetDefinition bad;
  bad.symbol = "P";
  bad.description = "references unknown event";
  bad.terms = {{"NOT_AN_EVENT", 1.0}};
  const auto mixes = cat::random_mixed_workloads(bench, 1, 1);
  EXPECT_THROW(
      validate_metric(machine, bench, bad, cpu_flops_signatures()[0].coordinates,
                      mixes),
      std::invalid_argument);
}

}  // namespace
}  // namespace catalyst::core
