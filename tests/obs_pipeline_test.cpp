// Integration of catalyst::obs with the pipeline: every stage emits a span,
// retry spans appear under injected faults, stage timings ride on
// PipelineResult into the Markdown report -- and, the determinism contract,
// tracing never changes a single bit of the results.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "cat/cat.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/signatures.hpp"
#include "faults/faults.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pmu/pmu.hpp"
#include "vpapi/collector.hpp"
#include "vpapi/scheduler.hpp"

namespace catalyst {
namespace {

class ObsPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_world(); }
  void TearDown() override { reset_world(); }

  static void reset_world() {
    obs::Tracer::instance().enable(false);
    obs::Tracer::instance().set_clock(nullptr);
    obs::Tracer::instance().reset();
    obs::Metrics::instance().reset();
  }
};

core::PipelineResult run_branch() {
  return core::run_pipeline(pmu::saphira_cpu(), cat::branch_benchmark(),
                            core::branch_signatures());
}

std::set<std::string> span_names() {
  std::set<std::string> names;
  for (const auto& rec : obs::Tracer::instance().buffer().snapshot()) {
    names.insert(rec.name);
  }
  return names;
}

TEST_F(ObsPipelineTest, TracingNeverPerturbsResults) {
  const core::PipelineResult plain = run_branch();

  faults::FakeClock clock;
  obs::Tracer::instance().set_clock(&clock);
  obs::Tracer::instance().enable(true);
  const core::PipelineResult traced = run_branch();
  obs::Tracer::instance().enable(false);

  // Bit-identical, not approximately equal: spans touch no RNG and no data.
  ASSERT_EQ(plain.all_event_names, traced.all_event_names);
  ASSERT_EQ(plain.measurements, traced.measurements);
  ASSERT_EQ(plain.xhat_events, traced.xhat_events);
  ASSERT_EQ(plain.metrics.size(), traced.metrics.size());
  for (std::size_t m = 0; m < plain.metrics.size(); ++m) {
    ASSERT_EQ(plain.metrics[m].terms.size(), traced.metrics[m].terms.size());
    for (std::size_t t = 0; t < plain.metrics[m].terms.size(); ++t) {
      EXPECT_EQ(plain.metrics[m].terms[t].coefficient,
                traced.metrics[m].terms[t].coefficient);
    }
    EXPECT_EQ(plain.metrics[m].backward_error, traced.metrics[m].backward_error);
  }
  // Untraced runs carry no timings (the Markdown timing section only
  // appears when tracing was on).
  EXPECT_TRUE(plain.stage_timings.empty());
}

#if !defined(CATALYST_OBS_DISABLED)

TEST_F(ObsPipelineTest, EveryPipelineStageEmitsASpan) {
  faults::FakeClock clock;
  obs::Tracer::instance().set_clock(&clock);
  obs::Tracer::instance().enable(true);
  const core::PipelineResult result = run_branch();
  obs::Tracer::instance().enable(false);

  const auto names = span_names();
  for (const char* expected :
       {"stage.collect", "stage.median_normalize", "stage.noise_filter",
        "stage.projection", "stage.qrcp", "stage.metrics", "pipeline.analyze",
        "qrcp.pivot", "vpapi.collect", "collect.unit"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }

  // The same measurement rides on the result as per-stage wall time, in
  // pipeline order under deterministic virtual time.
  ASSERT_GE(result.stage_timings.size(), 5u);
  EXPECT_EQ(result.stage_timings[0].name, "collect");
  EXPECT_EQ(result.stage_timings[1].name, "median_normalize");
  for (const auto& st : result.stage_timings) {
    EXPECT_GT(st.wall_ns, 0) << st.name;
  }

  // Funnel counters registered (exact counts are pipeline-dependent; the
  // ordering invariant is what the manifest schema checks).
  const auto snap = obs::Metrics::instance().snapshot();
  EXPECT_GT(snap.counter("pipeline.events_measured"), 0u);
  EXPECT_GE(snap.counter("pipeline.events_measured"),
            snap.counter("pipeline.events_noise_kept"));
  EXPECT_GE(snap.counter("pipeline.events_noise_kept"),
            snap.counter("pipeline.events_selected"));
  ASSERT_NE(snap.histogram("qrcp.pivot_score"), nullptr);
  EXPECT_EQ(snap.histogram("qrcp.pivot_score")->total_count,
            result.qr.pivot_scores.size());
}

TEST_F(ObsPipelineTest, RetryAndBackoffSpansAppearUnderFaults) {
  // Same tiny faulty machine as collector_resilient_test: high fault rates
  // on few events guarantee retries.
  pmu::Machine m("faulty-tiny", 2, 7);
  m.add_event({"A", "x", {{"x", 1.0}}, {}});
  m.add_event({"B", "2x", {{"x", 2.0}}, {}});
  m.add_event({"C", "y", {{"y", 1.0}}, {}});
  m.add_event({"D", "x+y", {{"x", 1.0}, {"y", 1.0}}, {}});
  m.add_event({"N", "noisy x", {{"x", 1.0}, {"y", 0.5}},
               pmu::NoiseModel::relative(0.05)});
  m.add_event({"Z", "dead", {}, {}});
  const std::vector<std::string> events = {"A", "B", "C", "D", "N", "Z"};
  const std::vector<pmu::Activity> acts{{{"x", 1e6}, {"y", 3e5}},
                                        {{"x", 5e5}},
                                        {{"y", 9e5}}};

  faults::FakeClock clock;
  obs::Tracer::instance().set_clock(&clock);
  obs::Tracer::instance().enable(true);
  // Boosted transient rate: the canonical mid-rate plan on this tiny
  // machine (few readings) can draw zero faults, and the point here is
  // that retries DO produce spans.
  faults::FaultPlan plan = faults::FaultPlan::mid_rate();
  plan.rates.dropped_reading = 0.2;
  plan.rates.wrap = 0.05;
  vpapi::ResilienceOptions opts;
  opts.clock = &clock;  // pacing through the injectable clock -> backoff spans
  const auto out =
      vpapi::collect_resilient(m, events, acts, vpapi::repetition_ids(3), 1,
                               &plan, opts);
  obs::Tracer::instance().enable(false);

  ASSERT_GT(out.report.total_retries, 0u) << "plan injected no faults";
  const auto names = span_names();
  EXPECT_TRUE(names.count("vpapi.collect_resilient"));
  EXPECT_TRUE(names.count("collect.unit"));
  EXPECT_TRUE(names.count("collect.retry"));
  EXPECT_TRUE(names.count("collect.backoff"));

  // The campaign-level rollup mirrors the report.
  const auto snap = obs::Metrics::instance().snapshot();
  EXPECT_EQ(snap.counter("collect.retries"), out.report.total_retries);

  // Happy-path attempts are span-quiet (the inert-span idiom): only actual
  // retries produce spans, so there can never be more retry spans than
  // retries tallied in the report.
  std::size_t retry_spans = 0;
  for (const auto& rec : obs::Tracer::instance().buffer().snapshot()) {
    const std::string name(rec.name);
    if (name == "collect.retry" || name == "collect.add_retry") ++retry_spans;
  }
  EXPECT_GT(retry_spans, 0u);
  EXPECT_LE(retry_spans, out.report.total_retries);
}

/// The collect.unit spans recorded so far.
std::vector<obs::SpanRecord> unit_spans() {
  std::vector<obs::SpanRecord> units;
  for (const auto& rec : obs::Tracer::instance().buffer().snapshot()) {
    if (std::string(rec.name) == "collect.unit") units.push_back(rec);
  }
  return units;
}

TEST_F(ObsPipelineTest, MultiThreadedBenchmarkCollectsEachRepetitionOnce) {
  // Each benchmark thread sweeps the event groups once per repetition:
  // reps x threads x runs_per_repetition units in all, none read and
  // thrown away.
  const pmu::Machine machine = pmu::saphira_cpu();
  cat::DcacheOptions chase;
  chase.threads = 3;
  const cat::Benchmark bench = cat::dcache_benchmark(chase);
  core::PipelineOptions options;
  options.tau = 1e-1;
  options.alpha = 5e-2;
  obs::Tracer::instance().enable(true);
  core::run_pipeline(machine, bench, core::dcache_signatures(), options);
  obs::Tracer::instance().enable(false);

  const std::size_t runs_per_repetition =
      vpapi::schedule_event_sets(machine, machine.event_names()).runs.size();
  EXPECT_EQ(unit_spans().size(),
            options.repetitions * chase.threads * runs_per_repetition);
}

TEST_F(ObsPipelineTest, CollectionThreadsDriveEveryCollector) {
  // collection_threads > 1 hands every unit to a worker pool: no unit runs
  // on the calling thread, and the checkpointed campaign's three collector
  // calls (one per batch) each start a pool of fresh threads.  With one
  // thread every unit runs on the caller.  Checked for the clean and the
  // resilient collector alike.
  const faults::FaultPlan idle;
  const std::vector<const faults::FaultPlan*> plans = {nullptr, &idle};
  for (const faults::FaultPlan* plan : plans) {
    for (const int workers : {1, 4}) {
      SCOPED_TRACE(std::string(plan ? "resilient" : "clean") + ", threads " +
                   std::to_string(workers));
      obs::Tracer::instance().reset();
      core::CampaignOptions campaign;
      campaign.pipeline.collection_threads = workers;
      campaign.fault_plan = plan;
      campaign.checkpoint.directory =
          ::testing::TempDir() + "/collection_threads_" +
          std::to_string(workers) + (plan ? "_resilient" : "_clean");
      std::filesystem::remove_all(campaign.checkpoint.directory);
      obs::Tracer::instance().enable(true);
      core::run_campaign(pmu::saphira_cpu(), cat::branch_benchmark(),
                         core::branch_signatures(), campaign);
      obs::Tracer::instance().enable(false);
      std::filesystem::remove_all(campaign.checkpoint.directory);

      const std::uint32_t caller = obs::this_thread_id();
      std::set<std::uint32_t> threads;
      for (const auto& rec : unit_spans()) threads.insert(rec.thread_id);
      if (workers == 1) {
        EXPECT_EQ(threads, std::set<std::uint32_t>{caller});
      } else {
        EXPECT_GT(threads.size(), 1u);
        EXPECT_EQ(threads.count(caller), 0u);
      }
    }
  }
}

TEST_F(ObsPipelineTest, CancelledCampaignCollectsNothing) {
  // The token is polled before every collector call, so a campaign that is
  // already cancelled stops before its first unit -- checkpointed or not.
  core::CancelToken cancel;
  cancel.request_cancel();
  for (const bool checkpointing : {false, true}) {
    SCOPED_TRACE(checkpointing ? "checkpointed" : "uncheckpointed");
    obs::Tracer::instance().reset();
    core::CampaignOptions campaign;
    campaign.pipeline.cancel = &cancel;
    if (checkpointing) {
      campaign.checkpoint.directory =
          ::testing::TempDir() + "/cancelled_campaign";
    }
    obs::Tracer::instance().enable(true);
    EXPECT_THROW(core::run_campaign(pmu::saphira_cpu(),
                                    cat::branch_benchmark(),
                                    core::branch_signatures(), campaign),
                 core::PipelineCancelled);
    obs::Tracer::instance().enable(false);
    EXPECT_TRUE(unit_spans().empty());
  }
}

#endif  // !CATALYST_OBS_DISABLED

TEST_F(ObsPipelineTest, MarkdownReportRendersStageTimingsWhenPresent) {
  core::PipelineResult result = run_branch();
  const auto without = core::format_markdown_report("r", result);
  EXPECT_EQ(without.find("## Stage timings"), std::string::npos)
      << "timing section must be absent when tracing was off";

  result.stage_timings = {{"collect", 3'000'000},
                          {"noise_filter", 1'000'000}};
  const auto with = core::format_markdown_report("r", result);
  EXPECT_NE(with.find("## Stage timings"), std::string::npos);
  EXPECT_NE(with.find("| collect |"), std::string::npos);
  EXPECT_NE(with.find("| noise_filter |"), std::string::npos);
  EXPECT_NE(with.find("75.0"), std::string::npos);  // 3ms of 4ms total
}

}  // namespace
}  // namespace catalyst
