// Tests for the instruction-cache benchmark (the fifth category) and its
// end-to-end pipeline behaviour.
#include "cat/icache.hpp"

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

TEST(IcacheBenchmark, DefaultShape) {
  const auto b = icache_benchmark();
  EXPECT_EQ(b.name, "cat-icache");
  EXPECT_EQ(b.slots.size(), 6u);
  EXPECT_EQ(b.basis.e.rows(), 6);
  EXPECT_EQ(b.basis.e.cols(), 3);
  EXPECT_EQ(b.basis.labels,
            (std::vector<std::string>{"L1IM", "L1IH", "L2IH"}));
  EXPECT_EQ(b.basis.ideal_events.size(), 3u);
}

TEST(IcacheBenchmark, SmallFootprintsHitL1I) {
  const auto b = icache_benchmark();
  // First two slots are inside the 32 KiB L1I.
  for (std::size_t s = 0; s < 2; ++s) {
    const auto& act = b.activities()[0][s];
    const double hits = act.at(sig::l1i_hit) / b.slots[s].normalizer;
    EXPECT_GT(hits, 0.95) << b.slots[s].name;
    EXPECT_DOUBLE_EQ(b.basis.e(static_cast<linalg::index_t>(s), 1), 1.0);
  }
}

TEST(IcacheBenchmark, LargeFootprintsMissL1I) {
  const auto b = icache_benchmark();
  for (std::size_t s = 2; s < b.slots.size(); ++s) {
    const auto& act = b.activities()[0][s];
    const double misses = act.at(sig::l1i_miss) / b.slots[s].normalizer;
    // Sequential cyclic over LRU beyond capacity: near-total misses.
    EXPECT_GT(misses, 0.9) << b.slots[s].name;
    EXPECT_DOUBLE_EQ(b.basis.e(static_cast<linalg::index_t>(s), 0), 1.0);
  }
}

TEST(IcacheBenchmark, L2RegimeServedByL2) {
  const auto b = icache_benchmark();
  // Slots 2-3 (256K, 1M) fit the 2 MiB L2.
  for (std::size_t s = 2; s < 4; ++s) {
    const auto& act = b.activities()[0][s];
    EXPECT_GT(act.at(sig::l2i_hit) / b.slots[s].normalizer, 0.9)
        << b.slots[s].name;
  }
  // Slots 4-5 (4M, 6M) overflow L2.
  for (std::size_t s = 4; s < 6; ++s) {
    const auto& act = b.activities()[0][s];
    EXPECT_LT(act.at(sig::l2i_hit) / b.slots[s].normalizer, 0.1)
        << b.slots[s].name;
  }
}

TEST(IcacheBenchmark, RejectsBadOptions) {
  IcacheOptions opt;
  opt.footprints_bytes.clear();
  EXPECT_THROW(icache_benchmark(opt), std::invalid_argument);
  IcacheOptions opt2;
  opt2.measured_traversals = 0;
  EXPECT_THROW(icache_benchmark(opt2), std::invalid_argument);
  IcacheOptions opt3;
  opt3.hierarchy.levels.pop_back();
  EXPECT_THROW(icache_benchmark(opt3), std::invalid_argument);
}

TEST(IcacheSignatures, ShapesAndRelations) {
  const auto sigs = core::icache_signatures();
  ASSERT_EQ(sigs.size(), 5u);
  for (const auto& s : sigs) EXPECT_EQ(s.coordinates.size(), 3u);
  // L2 Instruction Misses = L1I Misses - L2 Instruction Hits.
  EXPECT_EQ(sigs[4].coordinates, (linalg::Vector{1, 0, -1}));
}

class IcachePipeline : public ::testing::Test {
 protected:
  static const core::PipelineResult& result() {
    static const core::PipelineResult res = [] {
      core::PipelineOptions opt;
      opt.tau = 1e-1;
      opt.alpha = 5e-2;
      opt.projection_max_error = 1e-1;
      opt.fitness_threshold = 5e-2;
      return core::run_pipeline(pmu::saphira_cpu(), icache_benchmark(),
                                core::icache_signatures(), opt);
    }();
    return res;
  }
};

TEST_F(IcachePipeline, SelectsOneEventPerBasisDimension) {
  const auto& events = result().xhat_events;
  ASSERT_EQ(events.size(), 3u) << core::format_selected_events(result());
  EXPECT_NE(std::find(events.begin(), events.end(), "ICACHE_64B:IFTAG_HIT"),
            events.end());
  const bool has_miss =
      std::find(events.begin(), events.end(), "ICACHE_64B:IFTAG_MISS") !=
          events.end() ||
      std::find(events.begin(), events.end(), "FRONTEND_RETIRED:L1I_MISS") !=
          events.end();
  EXPECT_TRUE(has_miss);
  EXPECT_NE(std::find(events.begin(), events.end(),
                      "FRONTEND_RETIRED:L2I_HIT"),
            events.end());
}

TEST_F(IcachePipeline, AllSignaturesCompose) {
  ASSERT_EQ(result().metrics.size(), 5u);
  for (const auto& m : result().metrics) {
    EXPECT_TRUE(m.composable) << m.metric_name << " " << m.backward_error;
    const auto rounded = core::round_coefficients(m.terms, 0.05);
    for (const auto& t : rounded) {
      EXPECT_DOUBLE_EQ(t.coefficient, std::round(t.coefficient))
          << m.metric_name << "/" << t.event_name;
    }
  }
}

}  // namespace
}  // namespace catalyst::cat
