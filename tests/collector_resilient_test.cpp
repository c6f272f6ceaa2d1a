// The resilient driver's contracts: bit-identity on the clean path, exact
// recovery under the canonical fault plan, quarantine of unrecoverable
// events, thread-count invariance, backoff pacing through the injectable
// clock, and the torn-row regression in the non-resilient driver.
#include "vpapi/collector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace catalyst::vpapi {
namespace {

pmu::Machine fault_machine() {
  // 2 counters x 6 events -> 3 groups per repetition: group scheduling,
  // retry, and quarantine all get exercised.
  pmu::Machine m("faulty-tiny", 2, 7);
  m.add_event({"A", "x", {{"x", 1.0}}, {}});
  m.add_event({"B", "2x", {{"x", 2.0}}, {}});
  m.add_event({"C", "y", {{"y", 1.0}}, {}});
  m.add_event({"D", "x+y", {{"x", 1.0}, {"y", 1.0}}, {}});
  m.add_event({"N", "noisy x", {{"x", 1.0}, {"y", 0.5}},
               pmu::NoiseModel::relative(0.05)});
  m.add_event({"Z", "dead", {}, {}});
  return m;
}

const std::vector<std::string> kEvents = {"A", "B", "C", "D", "N", "Z"};
const std::vector<pmu::Activity> kActs{{{"x", 1e6}, {"y", 3e5}},
                                       {{"x", 5e5}},
                                       {{"y", 9e5}}};

faults::FaultPlan mid_plan() { return faults::FaultPlan::mid_rate(); }

void expect_identical_values(const CollectionResult& a,
                             const CollectionResult& b) {
  ASSERT_EQ(a.event_names, b.event_names);
  ASSERT_EQ(a.repetitions.size(), b.repetitions.size());
  for (std::size_t r = 0; r < a.repetitions.size(); ++r) {
    ASSERT_EQ(a.repetitions[r].values.size(), b.repetitions[r].values.size());
    for (std::size_t e = 0; e < a.repetitions[r].values.size(); ++e) {
      ASSERT_EQ(a.repetitions[r].values[e], b.repetitions[r].values[e])
          << "rep " << r << " event " << a.event_names[e];
    }
  }
}

TEST(CollectResilient, CleanPathBitIdenticalToCollect) {
  const auto m = fault_machine();
  const auto plain = collect(m, kEvents, kActs, repetition_ids(3));
  const auto resilient =
      collect_resilient(m, kEvents, kActs, repetition_ids(3), 1,
                        /*plan=*/nullptr);
  expect_identical_values(plain, resilient.data);
  EXPECT_EQ(resilient.report.total_retries, 0u);
  EXPECT_EQ(resilient.report.quarantined.size(), 0u);
  for (const auto& e : resilient.report.events) {
    EXPECT_EQ(e.disposition, EventDisposition::clean);
  }
}

TEST(CollectResilient, DisabledPlanAlsoBitIdentical) {
  const auto m = fault_machine();
  const faults::FaultPlan off;  // all rates zero
  const auto plain = collect(m, kEvents, kActs, repetition_ids(2));
  const auto resilient = collect_resilient(m, kEvents, kActs,
                                         repetition_ids(2), 1, &off);
  expect_identical_values(plain, resilient.data);
}

TEST(CollectResilient, MidRateFaultsRecoverExactValues) {
  // The tentpole claim at the collector level: retries re-draw the fault
  // coordinate while the underlying reading is a pure function of
  // (event, run, kernel) -- so recovery reproduces the CLEAN data exactly,
  // not approximately.
  const auto m = fault_machine();
  const auto clean = collect(m, kEvents, kActs, repetition_ids(3));
  const auto plan = mid_plan();
  const auto resilient = collect_resilient(m, kEvents, kActs,
                                         repetition_ids(3), 1, &plan);
  ASSERT_TRUE(resilient.report.quarantined.empty())
      << "mid-rate faults must never exhaust 8 retries";
  expect_identical_values(clean, resilient.data);
}

TEST(CollectResilient, UnrecoverableEventIsQuarantined) {
  const auto m = fault_machine();
  faults::FaultPlan plan;
  plan.seed = 9;
  faults::FaultRates cursed;
  cursed.dropped_reading = 1.0;  // every read attempt fails, forever
  plan.per_event["C"] = cursed;

  const auto clean = collect(m, kEvents, kActs, repetition_ids(2));
  ResilienceOptions options;
  options.max_retries = 3;
  const auto resilient = collect_resilient(
      m, kEvents, kActs, repetition_ids(2), 1, &plan, options);

  ASSERT_EQ(resilient.report.quarantined,
            std::vector<std::string>({"C"}));
  const auto* c = resilient.report.find("C");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->disposition, EventDisposition::quarantined);
  EXPECT_GT(c->faults[static_cast<std::size_t>(
                faults::FaultKind::dropped_reading)],
            0u);

  // The survivors' rows are bit-identical to the clean run's.
  ASSERT_EQ(resilient.data.event_names,
            std::vector<std::string>({"A", "B", "D", "N", "Z"}));
  for (std::size_t r = 0; r < 2; ++r) {
    std::size_t clean_e = 0;
    for (std::size_t e = 0; e < kEvents.size(); ++e) {
      if (kEvents[e] == "C") continue;
      EXPECT_EQ(resilient.data.repetitions[r].values[clean_e],
                clean.repetitions[r].values[e])
          << kEvents[e];
      ++clean_e;
    }
  }
}

TEST(CollectResilient, ThreadCountInvariance) {
  // Fixed plan seed: 1 worker vs 4 workers must give bit-identical data
  // AND identical per-event fault tallies (merge is additive/set-union).
  const auto m = fault_machine();
  faults::FaultPlan plan = mid_plan();
  plan.rates.dropped_reading = 0.2;  // plenty of retries to merge
  plan.rates.wrap = 0.05;

  const auto a =
      collect_resilient(m, kEvents, kActs, repetition_ids(4), 1, &plan);
  const auto b =
      collect_resilient(m, kEvents, kActs, repetition_ids(4), 4, &plan);

  expect_identical_values(a.data, b.data);
  EXPECT_EQ(a.report.total_retries, b.report.total_retries);
  EXPECT_EQ(a.report.start_retries, b.report.start_retries);
  EXPECT_EQ(a.report.quarantined, b.report.quarantined);
  ASSERT_EQ(a.report.events.size(), b.report.events.size());
  for (std::size_t e = 0; e < a.report.events.size(); ++e) {
    EXPECT_EQ(a.report.events[e].name, b.report.events[e].name);
    EXPECT_EQ(a.report.events[e].faults, b.report.events[e].faults);
    EXPECT_EQ(a.report.events[e].retries, b.report.events[e].retries);
    EXPECT_EQ(a.report.events[e].wraps_corrected,
              b.report.events[e].wraps_corrected);
    EXPECT_EQ(a.report.events[e].disposition, b.report.events[e].disposition);
  }
}

TEST(CollectResilient, BackoffGoesThroughTheInjectableClock) {
  const auto m = fault_machine();
  faults::FaultPlan plan;
  plan.seed = 3;
  plan.rates.dropped_reading = 0.3;

  faults::FakeClock clock;
  ResilienceOptions options;
  options.clock = &clock;
  const auto result = collect_resilient(m, kEvents, kActs, repetition_ids(3),
                                        1, &plan, options);
  EXPECT_GT(result.report.total_retries, 0u);
  // Every retry paid a backoff delay through the clock; no wall time was
  // spent (this test completes instantly).
  EXPECT_FALSE(clock.delays().empty());
  for (const auto d : clock.delays()) {
    EXPECT_GE(d, options.backoff.base);
    EXPECT_LE(d, options.backoff.cap);
  }
}

TEST(CollectResilient, StressManyWorkersManyFaults) {
  // Aggressive rates + 8 workers; run under CATALYST_TSAN to prove the
  // retry/quarantine machinery is race-free.  Results must still match the
  // serial run bit for bit.
  const auto m = fault_machine();
  faults::FaultPlan plan = mid_plan();
  plan.rates.dropped_reading = 0.3;
  plan.rates.stuck = 0.1;
  plan.rates.wrap = 0.05;
  plan.rates.spike = 0.05;
  plan.rates.start_busy = 0.1;

  const auto a =
      collect_resilient(m, kEvents, kActs, repetition_ids(6), 1, &plan);
  const auto b =
      collect_resilient(m, kEvents, kActs, repetition_ids(6), 8, &plan);
  expect_identical_values(a.data, b.data);
  EXPECT_EQ(a.report.quarantined, b.report.quarantined);
  EXPECT_EQ(a.report.total_retries, b.report.total_retries);
}

TEST(Collect, NonResilientDriverFailsLoudlyOnFaults) {
  // Regression: an unchecked transient read used to leave the PREVIOUS
  // kernel's readings in the output row -- silently torn data.  The
  // non-resilient driver must now throw instead.
  const auto m = fault_machine();
  faults::FaultPlan plan;
  plan.seed = 5;
  faults::FaultRates cursed;
  cursed.dropped_reading = 1.0;
  plan.per_event["A"] = cursed;
  EXPECT_THROW(collect(m, kEvents, kActs, repetition_ids(2), 1, &plan),
               std::runtime_error);
  // Multi-threaded: worker exceptions surface on the caller, partial
  // output is discarded (no torn rows escape).
  EXPECT_THROW(collect(m, kEvents, kActs, repetition_ids(2), 4, &plan),
               std::runtime_error);
}

TEST(CollectResilient, RepetitionOffsetMatchesUninterruptedRun) {
  // The checkpointing contract: collecting repetitions [0, 4) in one call
  // equals collecting them one at a time by their absolute ids.
  const auto m = fault_machine();
  const auto plan = mid_plan();
  const auto whole =
      collect_resilient(m, kEvents, kActs, repetition_ids(4), 1, &plan);
  for (std::size_t r = 0; r < 4; ++r) {
    const auto one = collect_resilient(m, kEvents, kActs, {r}, 1, &plan);
    ASSERT_EQ(one.data.repetitions.size(), 1u);
    ASSERT_EQ(one.data.event_names, whole.data.event_names);
    EXPECT_EQ(one.data.repetitions[0].values,
              whole.data.repetitions[r].values)
        << "repetition " << r;
  }
}

}  // namespace
}  // namespace catalyst::vpapi
