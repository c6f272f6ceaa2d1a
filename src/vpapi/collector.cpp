#include "vpapi/collector.hpp"

#include "core/contract.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "core/parallel.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "sync/annotations.hpp"
#include "sync/mutex.hpp"
#include "vpapi/scheduler.hpp"

namespace catalyst::vpapi {

std::vector<std::vector<std::string>> schedule_groups(
    const pmu::Machine& machine, const std::vector<std::string>& event_names) {
  const std::size_t budget = machine.physical_counters();
  std::vector<std::vector<std::string>> groups;
  for (const auto& name : event_names) {
    if (groups.empty() || groups.back().size() >= budget) {
      groups.emplace_back();
    }
    groups.back().push_back(name);
  }
  return groups;
}

namespace {

// Runs one (repetition, group) unit: a fresh session measuring the group's
// events over the full kernel sequence, writing results into the
// caller-owned rows of `data` named by `dest_rows` (constrained events may
// be packed out of input order, so a run's rows need not be contiguous).
// `ideals` is the sweep-wide (event, kernel) ideal-value table; it is
// immutable and shared by every unit (and worker thread) of the collection.
void run_unit(const pmu::Machine& machine,
              const std::vector<std::string>& group,
              const std::vector<pmu::Activity>& activities,
              const pmu::IdealTable& ideals, std::uint64_t run_id,
              const std::vector<std::size_t>& dest_rows, RepetitionData& data,
              const faults::FaultPlan* plan) {
  Session session(machine);
  if (plan != nullptr) {
    session.set_fault_context(plan);
    session.set_fault_coordinates(run_id, 0);
  }
  const int set = session.create_eventset();
  for (const auto& name : group) {
    const Status s = session.add_event(set, name);
    if (s != Status::ok) {
      throw std::runtime_error("collect: add_event '" + name +
                               "' failed: " + to_string(s));
    }
  }
  // Read counters per kernel slot: start/run/stop/read/reset around each
  // kernel, the way CAT instruments its microkernels.  Every status is
  // checked: an unchecked transient read() used to leave `vals` holding the
  // PREVIOUS kernel's readings, silently duplicating rows into the result.
  std::vector<std::vector<double>> per_kernel(group.size());
  for (auto& v : per_kernel) v.reserve(activities.size());
  std::vector<double> vals;
  for (std::size_t k = 0; k < activities.size(); ++k) {
    Status s = session.start(set);
    if (s != Status::ok) {
      throw std::runtime_error("collect: start failed: " + to_string(s));
    }
    session.run_kernel(activities[k], run_id, k, &ideals);
    session.stop(set);
    s = session.read(set, vals);
    if (s != Status::ok) {
      throw std::runtime_error("collect: read failed: " + to_string(s));
    }
    session.reset(set);
    for (std::size_t e = 0; e < vals.size(); ++e) {
      per_kernel[e].push_back(vals[e]);
    }
  }
  for (std::size_t e = 0; e < group.size(); ++e) {
    data.values[dest_rows[e]] = std::move(per_kernel[e]);
  }
}

// Maps every scheduled run's members back to their row in `event_names`
// (the schedule preserves within-run input order, but constrained events
// can be packed into earlier runs than chunking would put them).
std::vector<std::vector<std::size_t>> schedule_rows(
    const EventSetSchedule& schedule,
    const std::vector<std::string>& event_names) {
  std::unordered_map<std::string, std::size_t> index;
  index.reserve(event_names.size());
  for (std::size_t e = 0; e < event_names.size(); ++e) {
    index.emplace(event_names[e], e);
  }
  std::vector<std::vector<std::size_t>> rows(schedule.runs.size());
  for (std::size_t g = 0; g < schedule.runs.size(); ++g) {
    rows[g].reserve(schedule.runs[g].events.size());
    for (const auto& name : schedule.runs[g].events) {
      rows[g].push_back(index.at(name));
    }
  }
  return rows;
}

// Resolves event names to machine indices, throwing on unknown names.
std::vector<std::size_t> resolve_events(
    const pmu::Machine& machine, const std::vector<std::string>& event_names,
    const char* caller) {
  std::vector<std::size_t> indices;
  indices.reserve(event_names.size());
  for (const auto& name : event_names) {
    const auto idx = machine.find(name);
    if (!idx) {
      throw std::invalid_argument(std::string(caller) + ": unknown event " +
                                  name);
    }
    indices.push_back(*idx);
  }
  return indices;
}

}  // namespace

std::vector<std::size_t> repetition_ids(std::size_t count, std::size_t first,
                                        std::size_t stride) {
  std::vector<std::size_t> ids(count);
  for (std::size_t i = 0; i < count; ++i) ids[i] = first + i * stride;
  return ids;
}

CollectionResult collect(const pmu::Machine& machine,
                         const std::vector<std::string>& event_names,
                         const std::vector<pmu::Activity>& activities,
                         const std::vector<std::size_t>& repetitions,
                         int threads, const faults::FaultPlan* plan) {
  CATALYST_REQUIRE_AS(!repetitions.empty(), std::invalid_argument,
                      "collect: need at least one repetition");
  CATALYST_REQUIRE_AS(threads >= 1, std::invalid_argument,
                      "collect: need at least one thread");
  const std::vector<std::size_t> event_indices =
      resolve_events(machine, event_names, "collect");
  CollectionResult result;
  result.event_names = event_names;
  // Bin-packed, constraint-aware run schedule; identical to the naive
  // chunking when no event carries a slot mask (see vpapi/scheduler.hpp).
  const EventSetSchedule schedule = schedule_event_sets(machine, event_names);
  const std::vector<ScheduledRun>& groups = schedule.runs;
  result.runs_per_repetition = groups.size();

  // An event's ideal reading over a kernel is repetition-invariant, so the
  // (event, kernel) table is evaluated once and shared by all
  // repetitions x groups units below instead of being recomputed inside
  // every time slice.  The table is immutable from here on, so worker
  // threads read it without synchronization.
  const pmu::IdealTable ideals(machine, activities, event_indices);

  const std::vector<std::vector<std::size_t>> group_rows =
      schedule_rows(schedule, event_names);

  result.repetitions.resize(repetitions.size());
  for (auto& rep : result.repetitions) {
    rep.values.resize(event_names.size());
  }

  obs::Span collect_span("vpapi.collect");
  collect_span.arg("events", event_names.size());
  collect_span.arg("repetitions", repetitions.size());
  collect_span.arg("groups", groups.size());

  // Work list: all (repetition, group) units; each writes a disjoint slice
  // of the result, so workers need no synchronization beyond the cursor.
  const std::size_t total_units = repetitions.size() * groups.size();
  auto do_unit = [&](std::size_t unit) {
    const std::size_t rep = unit / groups.size();
    const std::size_t g = unit % groups.size();
    const std::uint64_t run_id = repetitions[rep] * groups.size() + g;
    obs::Span unit_span("collect.unit");
    unit_span.arg("rep", repetitions[rep]);
    unit_span.arg("group", g);
    run_unit(machine, groups[g].events, activities, ideals, run_id,
             group_rows[g], result.repetitions[rep], plan);
  };

  try {
    core::parallel_for(total_units, threads, do_unit);
  } catch (...) {
    // Sibling units may have landed complete rows before the failure was
    // noticed; discard everything so no partial campaign data can outlive
    // the error (the regression tests assert no torn rows escape).
    result.repetitions.clear();
    throw;
  }
  return result;
}

// --- resilient collection ---------------------------------------------------

std::string to_string(EventDisposition d) {
  switch (d) {
    case EventDisposition::clean: return "clean";
    case EventDisposition::recovered: return "recovered";
    case EventDisposition::quarantined: return "quarantined";
  }
  return "unknown";
}

std::uint64_t EventReport::total_faults() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t f : faults) sum += f;
  return sum;
}

const EventReport* CollectionReport::find(const std::string& name) const {
  for (const auto& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string CollectionReport::summary() const {
  std::size_t clean = 0;
  std::size_t recovered = 0;
  for (const auto& e : events) {
    if (e.disposition == EventDisposition::clean) ++clean;
    if (e.disposition == EventDisposition::recovered) ++recovered;
  }
  std::ostringstream os;
  os << events.size() << " events: " << clean << " clean, " << recovered
     << " recovered, " << quarantined.size() << " quarantined; "
     << total_retries << " retries";
  return os.str();
}

namespace {

/// Everything one resilient (repetition, group) unit produced; merged into
/// the campaign-wide result and report under the caller's lock.
struct UnitOutcome {
  /// Group-local complete kernel rows; empty vector = no trustworthy data
  /// for that event in this unit (it was quarantined).
  std::vector<std::vector<double>> rows;
  std::vector<char> quarantined;  ///< Group-local quarantine verdicts.
  std::vector<std::uint64_t> read_attempts;
  std::vector<std::uint64_t> retries;
  std::vector<std::uint64_t> wraps_corrected;
  std::vector<std::array<std::uint64_t, faults::kNumFaultKinds>> fault_counts;
  std::uint64_t start_retries = 0;
  std::uint64_t total_retries = 0;
};

/// One resilient (repetition, group) unit.  Every decision in here is a
/// pure function of (plan seed, event, run_id, kernel, attempt), so the
/// outcome is identical no matter which worker thread runs the unit.
UnitOutcome run_unit_resilient(const pmu::Machine& machine,
                               const std::vector<std::string>& group,
                               const std::vector<pmu::Activity>& activities,
                               const pmu::IdealTable& ideals,
                               std::uint64_t run_id,
                               const faults::FaultPlan* plan,
                               const ResilienceOptions& opts) {
  const std::size_t n = group.size();
  UnitOutcome out;
  out.rows.resize(n);
  out.quarantined.assign(n, 0);
  out.read_attempts.assign(n, 0);
  out.retries.assign(n, 0);
  out.wraps_corrected.assign(n, 0);
  out.fault_counts.assign(n, {});

  obs::Span unit_span("collect.unit");
  unit_span.arg("run", run_id);
  unit_span.arg("events", n);

  Session session(machine);
  if (plan != nullptr) session.set_fault_context(plan);
  const int set = session.create_eventset();

  auto pace = [&](std::uint64_t attempt) {
    if (opts.clock == nullptr) return;
    obs::Span backoff_span("collect.backoff");
    const std::chrono::nanoseconds d = opts.backoff.delay(attempt);
    backoff_span.arg("attempt", attempt);
    backoff_span.arg("ns", d.count());
    opts.clock->sleep_for(d);
  };

  // Machine event index -> group-local index, for fault attribution.
  std::vector<std::size_t> machine_index(n);
  std::unordered_map<std::size_t, std::size_t> local_of;
  local_of.reserve(n);
  for (std::size_t e = 0; e < n; ++e) {
    const auto idx = machine.find(group[e]);
    CATALYST_REQUIRE_AS(idx.has_value(), std::invalid_argument,
                        "collect_resilient: unknown event " + group[e]);
    machine_index[e] = *idx;
    local_of.emplace(*idx, e);
  }

  // Tallies the session's fault log into the per-event counters; when
  // `suspect` is given, events hit by a data-destroying fault (drop, stuck,
  // spike) on kernel `kernel` are flagged -- the culprits to quarantine if
  // this kernel exhausts its retries.
  auto drain_faults = [&](std::uint64_t kernel, std::vector<char>* suspect) {
    for (const auto& rec : session.fault_log()) {
      if (rec.event_index == static_cast<std::size_t>(-1)) continue;
      const auto it = local_of.find(rec.event_index);
      if (it == local_of.end()) continue;
      ++out.fault_counts[it->second][static_cast<std::size_t>(rec.kind)];
      if (suspect != nullptr && rec.kernel == kernel &&
          (rec.kind == faults::FaultKind::dropped_reading ||
           rec.kind == faults::FaultKind::stuck ||
           rec.kind == faults::FaultKind::spike)) {
        (*suspect)[it->second] = 1;
      }
    }
    session.clear_fault_log();
  };

  // --- add phase: transient EBUSY/ECNFLCT failures are retried per event --
  std::vector<std::size_t> in_set;  // group-local indices, add order
  in_set.reserve(n);
  for (std::size_t e = 0; e < n; ++e) {
    bool added = false;
    for (std::uint64_t attempt = 0; attempt <= opts.max_retries; ++attempt) {
      // Inert span (nullptr name) on the first attempt: only actual RETRIES
      // show up in the trace, so a fault-free run stays span-quiet here.
      obs::Span retry_span(attempt > 0 ? "collect.add_retry" : nullptr);
      retry_span.arg("event", group[e]);
      retry_span.arg("attempt", attempt);
      session.set_fault_coordinates(run_id, attempt);
      const Status s = session.add_event(set, group[e]);
      drain_faults(0, nullptr);
      if (s == Status::ok) {
        added = true;
        out.retries[e] += attempt;
        out.total_retries += attempt;
        break;
      }
      if (s != Status::transient) {
        throw std::runtime_error("collect_resilient: add_event '" + group[e] +
                                 "' failed: " + to_string(s));
      }
      pace(attempt);
    }
    if (added) {
      in_set.push_back(e);
    } else {
      out.quarantined[e] = 1;
      out.retries[e] += opts.max_retries;
      out.total_retries += opts.max_retries;
    }
  }
  for (const std::size_t e : in_set) out.rows[e].reserve(activities.size());

  // --- kernel loop: retry, unwrap, screen, quarantine ----------------------
  std::vector<double> vals;
  for (std::size_t k = 0; k < activities.size() && !in_set.empty(); ++k) {
    bool kernel_done = false;
    while (!kernel_done && !in_set.empty()) {
      std::vector<char> suspect(n, 0);
      bool success = false;
      for (std::uint64_t attempt = 0; attempt <= opts.max_retries; ++attempt) {
        // As above: span only the retries, not the happy path.
        obs::Span retry_span(attempt > 0 ? "collect.retry" : nullptr);
        retry_span.arg("kernel", k);
        retry_span.arg("attempt", attempt);
        session.set_fault_coordinates(run_id, attempt);
        Status s = session.start(set);
        if (s == Status::transient) {
          ++out.start_retries;
          ++out.total_retries;
          pace(attempt);
          continue;
        }
        if (s != Status::ok) {
          throw std::runtime_error("collect_resilient: start failed: " +
                                   to_string(s));
        }
        session.run_kernel(activities[k], run_id, k, &ideals);
        session.stop(set);
        s = session.read(set, vals);
        for (const std::size_t e : in_set) ++out.read_attempts[e];
        drain_faults(k, &suspect);
        session.reset(set);
        if (s == Status::transient) {
          for (const std::size_t e : in_set) ++out.retries[e];
          ++out.total_retries;
          pace(attempt);
          continue;
        }
        if (s != Status::ok) {
          throw std::runtime_error("collect_resilient: read failed: " +
                                   to_string(s));
        }
        // Width-aware delta decoding: a negative per-kernel delta means the
        // register wrapped between the surrounding reads; adding spans back
        // recovers the true reading exactly, no re-run needed.  Values the
        // plausibility screen rejects (spikes, non-finite) force a re-run.
        bool implausible = false;
        if (plan != nullptr) {
          for (std::size_t i = 0; i < vals.size(); ++i) {
            double v = vals[i];
            if (v < 0.0) {
              v = faults::unwrap_reading(plan->counter_width_bits, v,
                                         &out.wraps_corrected[in_set[i]]);
            }
            if (!std::isfinite(v) || v > plan->plausible_max) {
              implausible = true;
            }
            vals[i] = v;
          }
        }
        if (implausible) {
          for (const std::size_t e : in_set) ++out.retries[e];
          ++out.total_retries;
          pace(attempt);
          continue;
        }
        success = true;
        break;
      }
      if (success) {
        CATALYST_INVARIANT(vals.size() == in_set.size(),
                           "collect_resilient: reading/set size mismatch");
        for (std::size_t i = 0; i < vals.size(); ++i) {
          out.rows[in_set[i]].push_back(vals[i]);
        }
        kernel_done = true;
        continue;
      }
      // Retries exhausted on this kernel: quarantine the culprits (events a
      // data-destroying fault hit here) and re-run the kernel without them.
      // With no identifiable culprit (persistent set-level start failure)
      // the whole remaining group is quarantined and the unit abandoned.
      std::vector<std::size_t> keep;
      keep.reserve(in_set.size());
      bool any_culprit = false;
      for (const std::size_t e : in_set) {
        if (suspect[e] != 0) any_culprit = true;
      }
      for (const std::size_t e : in_set) {
        if (any_culprit && suspect[e] == 0) {
          keep.push_back(e);
          continue;
        }
        out.quarantined[e] = 1;
        out.rows[e].clear();  // discard the partial row: no torn data
        const Status s = session.remove_event(set, group[e]);
        CATALYST_INVARIANT(s == Status::ok,
                           "collect_resilient: remove_event failed");
      }
      in_set = std::move(keep);
    }
  }
  // Partial rows can only belong to quarantined events, and were cleared.
  for (std::size_t e = 0; e < n; ++e) {
    CATALYST_ENSURE(out.rows[e].size() == activities.size() ||
                        (out.rows[e].empty() && out.quarantined[e] != 0),
                    "collect_resilient: torn row escaped a unit");
  }
  return out;
}

}  // namespace

ResilientCollectionResult collect_resilient(
    const pmu::Machine& machine, const std::vector<std::string>& event_names,
    const std::vector<pmu::Activity>& activities,
    const std::vector<std::size_t>& repetitions, int threads,
    const faults::FaultPlan* plan, const ResilienceOptions& options) {
  CATALYST_REQUIRE_AS(!repetitions.empty(), std::invalid_argument,
                      "collect_resilient: need at least one repetition");
  CATALYST_REQUIRE_AS(threads >= 1, std::invalid_argument,
                      "collect_resilient: need at least one thread");
  const std::vector<std::size_t> event_indices =
      resolve_events(machine, event_names, "collect_resilient");
  const EventSetSchedule schedule = schedule_event_sets(machine, event_names);
  const std::vector<ScheduledRun>& groups = schedule.runs;
  const pmu::IdealTable ideals(machine, activities, event_indices);

  obs::Span collect_span("vpapi.collect_resilient");
  collect_span.arg("events", event_names.size());
  collect_span.arg("repetitions", repetitions.size());
  collect_span.arg("groups", groups.size());
  collect_span.arg("faults", plan != nullptr && plan->enabled());

  const std::vector<std::vector<std::size_t>> group_rows =
      schedule_rows(schedule, event_names);

  // Campaign-wide accumulators, merged per unit under `mutex`.  Every count
  // is additive and the quarantine verdicts are a set union, so the merged
  // state is independent of unit completion order -- the report and data
  // are bit-identical at any thread count.  All mutation funnels through
  // merge_unit(), whose CATALYST_REQUIRES annotation turns an unlocked
  // access into a `check.sh thread_safety` build error; scoping the state
  // inside the struct also gives the exception guarantee for free (a
  // worker throw destroys the partial campaign data with the struct -- no
  // torn rows escape).
  struct MergeState {
    sync::Mutex mutex{"vpapi.collect.merge"};
    CollectionReport report CATALYST_GUARDED_BY(mutex);
    std::vector<char> quarantined CATALYST_GUARDED_BY(mutex);
    std::vector<RepetitionData> reps CATALYST_GUARDED_BY(mutex);

    MergeState(const std::vector<std::string>& names, std::size_t n_reps) {
      report.events.resize(names.size());
      for (std::size_t e = 0; e < names.size(); ++e) {
        report.events[e].name = names[e];
      }
      quarantined.assign(names.size(), 0);
      reps.resize(n_reps);
      for (auto& r : reps) r.values.resize(names.size());
    }

    void merge_unit(const std::vector<std::size_t>& rows,
                    std::size_t rep_index, UnitOutcome&& out)
        CATALYST_REQUIRES(mutex) {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::size_t e = rows[i];
        EventReport& er = report.events[e];
        er.read_attempts += out.read_attempts[i];
        er.retries += out.retries[i];
        er.wraps_corrected += out.wraps_corrected[i];
        for (std::size_t f = 0; f < faults::kNumFaultKinds; ++f) {
          er.faults[f] += out.fault_counts[i][f];
        }
        if (out.quarantined[i] != 0) quarantined[e] = 1;
        reps[rep_index].values[e] = std::move(out.rows[i]);
      }
      report.start_retries += out.start_retries;
      report.total_retries += out.total_retries;
    }
  } merge(event_names, repetitions.size());

  auto do_unit = [&](std::size_t unit) {
    const std::size_t rep = unit / groups.size();
    const std::size_t g = unit % groups.size();
    const std::uint64_t run_id = repetitions[rep] * groups.size() + g;
    UnitOutcome out = run_unit_resilient(machine, groups[g].events,
                                         activities, ideals, run_id, plan,
                                         options);
    const sync::LockGuard lock(merge.mutex);
    merge.merge_unit(group_rows[g], rep, std::move(out));
  };

  const std::size_t total_units = repetitions.size() * groups.size();
  core::parallel_for(total_units, threads, do_unit);

  // Single-threaded from here (workers joined); move the merged state out
  // under the lock so the analysis stays exact.
  CollectionReport report;
  std::vector<char> quarantined;
  std::vector<RepetitionData> reps;
  {
    const sync::LockGuard lock(merge.mutex);
    report = std::move(merge.report);
    quarantined = std::move(merge.quarantined);
    reps = std::move(merge.reps);
  }

  // Dispositions + final data with quarantined events' rows removed.
  for (std::size_t e = 0; e < event_names.size(); ++e) {
    EventReport& er = report.events[e];
    if (quarantined[e] != 0) {
      er.disposition = EventDisposition::quarantined;
      report.quarantined.push_back(event_names[e]);
    } else if (er.total_faults() > 0 || er.retries > 0 ||
               er.wraps_corrected > 0) {
      er.disposition = EventDisposition::recovered;
    }
  }

  // Campaign-level observability rollup.  Counted once here, not per unit:
  // the totals are already order-independent sums, so this keeps metrics off
  // the merge lock entirely.
  if (obs::enabled()) {
    obs::count(obs::names::kCollectRetries, report.total_retries);
    obs::count(obs::names::kCollectStartRetries, report.start_retries);
    std::uint64_t wraps = 0;
    std::array<std::uint64_t, faults::kNumFaultKinds> by_kind{};
    for (const EventReport& er : report.events) {
      wraps += er.wraps_corrected;
      for (std::size_t f = 0; f < faults::kNumFaultKinds; ++f) {
        by_kind[f] += er.faults[f];
      }
    }
    obs::count(obs::names::kCollectWrapsCorrected, wraps);
    obs::count(obs::names::kCollectQuarantined, report.quarantined.size());
    for (std::size_t f = 0; f < faults::kNumFaultKinds; ++f) {
      if (by_kind[f] == 0) continue;
      obs::count(std::string(obs::names::kCollectFaultsPrefix) +
                     faults::to_string(static_cast<faults::FaultKind>(f)),
                 by_kind[f]);
    }
  }

  ResilientCollectionResult result;
  result.report = std::move(report);
  result.data.runs_per_repetition = groups.size();
  for (std::size_t e = 0; e < event_names.size(); ++e) {
    if (quarantined[e] == 0) result.data.event_names.push_back(event_names[e]);
  }
  result.data.repetitions.resize(repetitions.size());
  for (std::size_t r = 0; r < repetitions.size(); ++r) {
    auto& dst = result.data.repetitions[r].values;
    dst.reserve(result.data.event_names.size());
    for (std::size_t e = 0; e < event_names.size(); ++e) {
      if (quarantined[e] != 0) continue;
      CATALYST_ENSURE(reps[r].values[e].size() == activities.size(),
                      "collect_resilient: kept event '" + event_names[e] +
                          "' has an incomplete row");
      dst.push_back(std::move(reps[r].values[e]));
    }
  }
  return result;
}

CollectionResult collect_multiplexed(
    const pmu::Machine& machine, const std::vector<std::string>& event_names,
    const std::vector<pmu::Activity>& activities, std::size_t repetitions) {
  CATALYST_REQUIRE_AS(repetitions != 0, std::invalid_argument,
                      "collect_multiplexed: need at least one repetition");
  const std::vector<std::size_t> event_indices =
      resolve_events(machine, event_names, "collect_multiplexed");
  const pmu::IdealTable ideals(machine, activities, event_indices);
  CollectionResult result;
  result.event_names = event_names;
  result.runs_per_repetition = 1;

  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    Session session(machine);
    const int set = session.create_eventset();
    Status s = session.enable_multiplexing(set);
    if (s != Status::ok) {
      throw std::runtime_error("collect_multiplexed: " + to_string(s));
    }
    for (const auto& name : event_names) {
      s = session.add_event(set, name);
      if (s != Status::ok) {
        throw std::invalid_argument("collect_multiplexed: add_event '" +
                                    name + "': " + to_string(s));
      }
    }
    // Continue the round-robin schedule across repetitions instead of
    // restarting it at slot 0: with the cursor pinned, the same leading
    // groups would collect the ceil(slices/groups) share in EVERY
    // repetition whenever kernels % groups != 0, a systematic duty-cycle
    // bias against the trailing group that no amount of repetition
    // averages away (see Session::set_multiplex_phase).
    session.set_multiplex_phase(set, rep * activities.size());
    RepetitionData data;
    data.values.assign(event_names.size(), {});
    for (auto& v : data.values) v.reserve(activities.size());
    std::vector<double> prev(event_names.size(), 0.0);
    std::vector<double> now;
    session.start(set);
    for (std::size_t k = 0; k < activities.size(); ++k) {
      session.run_kernel(activities[k], rep, k, &ideals);
      session.read(set, now);
      // The multiplexed set keeps running across kernels (stopping would
      // reset the duty-cycle schedule); per-kernel values are consecutive
      // differences of the extrapolated totals.
      for (std::size_t e = 0; e < event_names.size(); ++e) {
        data.values[e].push_back(now[e] - prev[e]);
      }
      // read() clears its output before filling, so the buffers can just
      // trade places instead of copying every total per kernel.
      std::swap(prev, now);
    }
    session.stop(set);
    result.repetitions.push_back(std::move(data));
  }
  return result;
}

}  // namespace catalyst::vpapi
