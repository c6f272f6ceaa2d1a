// catalyst/vpapi -- multiplexed whole-machine data collection.
//
// There are hundreds to thousands of raw events and only a handful of
// physical counters, so measuring "every event over every kernel" requires
// scheduling events into counter-sized groups and re-running the benchmark
// once per group.  This is exactly how CAT gathers its data, and the
// grouping is why run-to-run noise shows up *between* events measured in
// different runs -- the effect the paper's repetition-based RNMSE filter
// targets.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "vpapi/vpapi.hpp"

namespace catalyst::vpapi {

/// One benchmark repetition's worth of measurements.
/// values[e][k] = reading of event e on kernel slot k.
struct RepetitionData {
  std::vector<std::vector<double>> values;
};

/// Full collection result across repetitions.
struct CollectionResult {
  std::vector<std::string> event_names;      ///< Row labels of `repetitions`.
  std::vector<RepetitionData> repetitions;   ///< One per benchmark repetition.
  std::size_t runs_per_repetition = 0;       ///< Benchmark re-runs needed.
};

/// Splits `event_names` into groups no larger than the machine's physical
/// counter budget (simple greedy chunking, preserving order).  Kept as the
/// constraint-blind reference scheduler; the collectors below use the
/// slot-mask-aware bin packer in vpapi/scheduler.hpp, which produces these
/// exact groups whenever no event carries a slot constraint.
std::vector<std::vector<std::string>> schedule_groups(
    const pmu::Machine& machine, const std::vector<std::string>& event_names);

/// The repetition ids {first, first + stride, ..., first + (count-1)*stride}.
/// A plain sweep of n repetitions is repetition_ids(n); a campaign's
/// benchmark thread t of n_threads collects repetition_ids(reps, t,
/// n_threads), so no two (repetition, thread) pairs share a noise coordinate.
std::vector<std::size_t> repetition_ids(std::size_t count,
                                        std::size_t first = 0,
                                        std::size_t stride = 1);

/// Measures every named event over the kernel sequence `activities` once
/// per entry of `repetitions`, multiplexing event groups across re-runs of
/// the whole sequence.  `repetitions` lists absolute repetition ids in
/// output order: result.repetitions[i] is read by runs
/// repetitions[i] * runs_per_repetition + g, one per group g.  Each
/// (repetition, group) pair is a distinct run and so sees distinct noise;
/// kernel slots within a run share the run.  Because ids are absolute, a
/// sweep split across several calls (a checkpointed campaign collecting one
/// batch at a time) reads exactly what one long call would.
///
/// `threads` > 1 simulates the independent (repetition, group) runs
/// concurrently on that many OS threads.  Because every reading's noise is
/// a pure function of its (event, repetition-run, kernel) coordinates, the
/// result is bit-identical to the serial collection regardless of thread
/// count or scheduling.  The (event, kernel) ideal-value table is computed
/// once up front and shared read-only by all units.
///
/// `plan` (optional) arms fault injection on every session.  This NON-
/// resilient driver treats any injected failure as fatal: a transient
/// add_event/start or an untrustworthy read throws instead of silently
/// recording corrupt data.  Use collect_resilient to survive faults.
///
/// Throws std::invalid_argument on unknown event names.  Exceptions raised
/// inside worker threads are captured and rethrown on the calling thread
/// (the first one wins, remaining units are abandoned, and all partially
/// collected output is discarded before the rethrow -- no torn rows).
CollectionResult collect(const pmu::Machine& machine,
                         const std::vector<std::string>& event_names,
                         const std::vector<pmu::Activity>& activities,
                         const std::vector<std::size_t>& repetitions,
                         int threads = 1,
                         const faults::FaultPlan* plan = nullptr);

/// The alternative CAT deliberately avoids: ONE time-division-multiplexed
/// event set holding every event, one benchmark run per repetition.  Far
/// fewer runs (1 instead of ceil(events/counters)), but each reading is a
/// duty-cycle extrapolation from the slices its counter happened to be
/// live -- an estimation error that scales with how bursty the kernel
/// sequence is.  Provided so the methodology benches can quantify the
/// trade-off against grouped collection.
///
/// Per-kernel readings are obtained by reading the running set after every
/// kernel and differencing consecutive totals.
CollectionResult collect_multiplexed(
    const pmu::Machine& machine, const std::vector<std::string>& event_names,
    const std::vector<pmu::Activity>& activities, std::size_t repetitions);

// --- resilient collection ---------------------------------------------------
//
// Real HPM campaigns fail in stereotyped ways (see faults/faults.hpp); the
// resilient driver survives them: transient failures are retried with capped
// exponential backoff, wrapped counters are corrected by width-aware delta
// decoding, kernels whose readings fail a plausibility screen are re-run,
// and an event that still fails after `max_retries` is QUARANTINED --
// recorded in the CollectionReport and excluded from the returned data --
// instead of aborting the whole campaign.

/// How an event came out of a resilient campaign.
enum class EventDisposition {
  clean = 0,   ///< No fault ever touched the event.
  recovered,   ///< Faults were injected but retry/correction absorbed them.
  quarantined, ///< Exhausted max_retries somewhere; excluded from the data.
};
std::string to_string(EventDisposition d);

/// Per-event tally of what the resilient driver saw and did.
struct EventReport {
  std::string name;
  std::uint64_t read_attempts = 0;  ///< Kernel read attempts that included it.
  std::uint64_t retries = 0;        ///< Attempts beyond the first, any cause.
  /// Injected faults attributed to this event, indexed by FaultKind.
  std::array<std::uint64_t, faults::kNumFaultKinds> faults{};
  std::uint64_t wraps_corrected = 0;  ///< Counter spans added back in place.
  EventDisposition disposition = EventDisposition::clean;

  std::uint64_t total_faults() const noexcept;
};

/// Structured outcome of a resilient campaign: one entry per requested
/// event (input order), plus campaign-level totals.
struct CollectionReport {
  std::vector<EventReport> events;
  std::uint64_t total_retries = 0;   ///< All retries, incl. add/start/read.
  std::uint64_t start_retries = 0;   ///< Set-level start_busy retries.
  std::vector<std::string> quarantined;  ///< Names, input order.

  const EventReport* find(const std::string& name) const;
  /// "172 events: 170 clean, 1 recovered, 1 quarantined; 12 retries".
  std::string summary() const;
};

/// Tuning of the retry/quarantine machinery.
struct ResilienceOptions {
  /// Extra attempts after the first, per add_event call and per kernel
  /// reading, before the offending event is quarantined.
  std::size_t max_retries = 8;
  faults::Backoff backoff;
  /// Retry pacing.  nullptr = no pacing (tests and simulated collection);
  /// the CLI installs a RealClock for real campaigns.  Never sleep via
  /// std::this_thread directly (catalyst-lint: sleep-in-retry).
  faults::Clock* clock = nullptr;
};

/// collect() + the recovery machinery above.
struct ResilientCollectionResult {
  /// Same layout as collect()'s result, minus quarantined events' rows.
  CollectionResult data;
  CollectionReport report;
};

/// Resilient counterpart of collect(), with the same repetition ids and
/// worker threads.  With `plan` null or disabled the returned data is
/// bit-identical to collect(machine, event_names, activities, repetitions)
/// -- the recovery machinery only reacts to injected faults, and readings
/// are pure functions of their coordinates.
ResilientCollectionResult collect_resilient(
    const pmu::Machine& machine, const std::vector<std::string>& event_names,
    const std::vector<pmu::Activity>& activities,
    const std::vector<std::size_t>& repetitions, int threads = 1,
    const faults::FaultPlan* plan = nullptr,
    const ResilienceOptions& options = {});

}  // namespace catalyst::vpapi
