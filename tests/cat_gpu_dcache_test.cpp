// Tests for the GPU data-movement benchmark (sixth category) and its
// pipeline behaviour on the Tempest machine.
#include "cat/gpu_dcache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/signatures.hpp"
#include "pmu/pmu.hpp"
#include "pmu/signals.hpp"

namespace catalyst::cat {
namespace {

namespace sig = pmu::sig;

TEST(GpuDcacheBenchmark, DefaultShape) {
  const auto b = gpu_dcache_benchmark();
  EXPECT_EQ(b.name, "cat-gpu-dcache");
  EXPECT_EQ(b.slots.size(), 4u);
  EXPECT_EQ(b.basis.labels, (std::vector<std::string>{"TCCH", "TCCM"}));
  EXPECT_EQ(b.basis.ideal_events.size(), 2u);
}

TEST(GpuDcacheBenchmark, RegimesMatchFootprints) {
  const auto b = gpu_dcache_benchmark();
  // Slots 0-1 fit the 8 MiB TCC; slots 2-3 stream from memory.
  for (std::size_t s = 0; s < 2; ++s) {
    const auto& act = b.activities()[0][s];
    EXPECT_GT(act.at(sig::gpu_tcc_hit) / b.slots[s].normalizer, 0.9)
        << b.slots[s].name;
  }
  for (std::size_t s = 2; s < 4; ++s) {
    const auto& act = b.activities()[0][s];
    EXPECT_GT(act.at(sig::gpu_tcc_miss) / b.slots[s].normalizer, 0.9)
        << b.slots[s].name;
  }
}

TEST(GpuDcacheBenchmark, ConservationPerSlot) {
  const auto b = gpu_dcache_benchmark();
  for (std::size_t s = 0; s < b.slots.size(); ++s) {
    const auto& slot = b.slots[s];
    const auto& act = b.activities()[0][s];
    EXPECT_NEAR((act.at(sig::gpu_tcc_hit) + act.at(sig::gpu_tcc_miss)) /
                    slot.normalizer,
                1.0, 1e-12)
        << slot.name;
  }
}

TEST(GpuDcacheBenchmark, RejectsBadOptions) {
  GpuDcacheOptions opt;
  opt.footprints_bytes.clear();
  EXPECT_THROW(gpu_dcache_benchmark(opt), std::invalid_argument);
  GpuDcacheOptions opt2;
  opt2.measured_traversals = 0;
  EXPECT_THROW(gpu_dcache_benchmark(opt2), std::invalid_argument);
}

TEST(GpuDcacheSignatures, Shapes) {
  const auto sigs = core::gpu_dcache_signatures();
  ASSERT_EQ(sigs.size(), 4u);
  for (const auto& s : sigs) EXPECT_EQ(s.coordinates.size(), 2u);
  EXPECT_EQ(sigs[3].coordinates, (linalg::Vector{0, 64}));
}

class GpuDcachePipeline : public ::testing::Test {
 protected:
  static const core::PipelineResult& result() {
    static const core::PipelineResult res = [] {
      core::PipelineOptions opt;
      opt.tau = 1e-1;
      opt.alpha = 5e-2;
      opt.projection_max_error = 1e-1;
      opt.fitness_threshold = 5e-2;
      return core::run_pipeline(pmu::tempest_gpu(), gpu_dcache_benchmark(),
                                core::gpu_dcache_signatures(), opt);
    }();
    return res;
  }
};

TEST_F(GpuDcachePipeline, SelectsTheAggregateCounters) {
  const auto& events = result().xhat_events;
  ASSERT_EQ(events.size(), 2u) << core::format_selected_events(result());
  EXPECT_NE(std::find(events.begin(), events.end(),
                      "rocm:::TCC_HIT_sum:device=0"),
            events.end());
  const bool miss_like =
      std::find(events.begin(), events.end(),
                "rocm:::TCC_MISS_sum:device=0") != events.end() ||
      std::find(events.begin(), events.end(),
                "rocm:::TCC_EA_RDREQ_sum:device=0") != events.end();
  EXPECT_TRUE(miss_like);
  // Per-channel events (1/16 coefficients) must never beat the aggregates.
  for (const auto& e : events) {
    EXPECT_EQ(e.find("TCC_HIT["), std::string::npos) << e;
    EXPECT_EQ(e.find("TCC_MISS["), std::string::npos) << e;
  }
}

TEST_F(GpuDcachePipeline, AllSignaturesCompose) {
  ASSERT_EQ(result().metrics.size(), 4u);
  for (const auto& m : result().metrics) {
    EXPECT_TRUE(m.composable) << m.metric_name << " " << m.backward_error;
  }
  // HBM bytes = ~64 x the miss-like event.
  for (const auto& m : result().metrics) {
    if (m.metric_name != "HBM Traffic Bytes.") continue;
    double max_coeff = 0.0;
    for (const auto& t : m.terms) {
      max_coeff = std::max(max_coeff, std::fabs(t.coefficient));
    }
    EXPECT_NEAR(max_coeff, 64.0, 2.0);
  }
}

}  // namespace
}  // namespace catalyst::cat
