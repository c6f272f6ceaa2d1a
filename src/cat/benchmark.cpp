#include "cat/benchmark.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "obs/trace.hpp"

namespace catalyst::cat {

const ActivityTable& Benchmark::activities() const {
  CATALYST_REQUIRE_AS(activities_.valid(), std::logic_error,
                      "benchmark '" + name + "' has no activity table");
  return activities_.get().table;
}

bool Benchmark::activities_ready() const {
  return activities_.valid() &&
         activities_.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
}

std::int64_t Benchmark::simulate_ns() const {
  (void)activities();
  return activities_.get().simulate_ns;
}

void Benchmark::set_activities(ActivityTable table) {
  std::promise<Simulated> ready;
  ready.set_value(Simulated{std::move(table), 0});
  activities_ = ready.get_future().share();
}

void Benchmark::set_simulation(
    std::string category, std::size_t units,
    std::function<ActivityTable(int workers)> simulate) {
  activities_ =
      std::async(std::launch::deferred,
                 [category = std::move(category), units,
                  simulate = std::move(simulate)] {
                   const int workers = core::hardware_workers(units);
                   obs::Span span("cat.simulate");
                   span.arg("category", category);
                   span.arg("units", units);
                   span.arg("workers", workers);
                   Simulated out{simulate(workers), 0};
                   span.end();
                   out.simulate_ns = span.duration_ns();
                   return out;
                 })
          .share();
}

std::vector<pmu::Activity> Benchmark::single_thread_activities() const {
  if (threads != 1) {
    throw std::logic_error(name + " is multi-threaded; use per-thread "
                                  "collection");
  }
  return activities().front();
}

void Benchmark::validate() const {
  CATALYST_REQUIRE_AS(!slots.empty(), std::invalid_argument,
                      "benchmark '" + name + "' has no kernel slots");
  CATALYST_REQUIRE_AS(threads >= 1, std::invalid_argument,
                      "benchmark '" + name + "' has no threads");
  for (const auto& slot : slots) {
    CATALYST_REQUIRE_AS(
        std::isfinite(slot.normalizer) && slot.normalizer > 0.0,
        std::invalid_argument,
        "benchmark '" + name + "': slot '" + slot.name +
            "' has a non-positive or non-finite normalizer");
  }
  const auto n_slots = static_cast<linalg::index_t>(slots.size());
  CATALYST_REQUIRE_AS(basis.e.rows() == n_slots, std::invalid_argument,
                      "benchmark '" + name +
                          "': expectation basis row count does not match the "
                          "slot count");
  const auto n_ideal = static_cast<std::size_t>(basis.e.cols());
  CATALYST_REQUIRE_AS(basis.labels.size() == n_ideal, std::invalid_argument,
                      "benchmark '" + name +
                          "': one label per expectation-basis column required");
  CATALYST_REQUIRE_AS(basis.ideal_events.size() == n_ideal,
                      std::invalid_argument,
                      "benchmark '" + name +
                          "': one ideal event per expectation-basis column "
                          "required");
  CATALYST_REQUIRE_AS(catalyst::contract::all_finite(basis.e.data()),
                      std::invalid_argument,
                      "benchmark '" + name +
                          "': expectation basis has NaN/Inf entries");
}

}  // namespace catalyst::cat
