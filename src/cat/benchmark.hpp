// catalyst/cat -- common benchmark abstractions.
//
// A CAT benchmark is a sequence of *kernel slots*.  One slot is one
// measurement unit: a microkernel loop with known, expected behaviour.  A
// benchmark has two parts:
//   * a cheap descriptor -- name, slot names, per-slot normalizers (which
//     convert raw totals into the per-iteration or per-access values the
//     expectation basis is written in), the expectation basis and the
//     number of concurrent threads per slot;
//   * the ground-truth Activity every (thread, slot) generates.  Compute
//     benchmarks write it down analytically; the cache benchmarks simulate
//     it, which costs far more than everything else in a cold process, so
//     the simulation runs on first use of activities() only.  Offline
//     analyses (archives, daemon SUBMITs, signature tables) read only the
//     descriptor and never simulate.
//
// The *expectation basis* E has one column per ideal event and one row per
// slot, holding the normalized count an ideal event would report for that
// slot (Section III-B of the paper).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "pmu/event.hpp"

namespace catalyst::cat {

/// One measurement unit of a benchmark.
struct KernelSlot {
  std::string name;  ///< e.g. "dp_256_fma/loop48" or "dcache/L2/stride64".
  /// Divisor applied to raw readings to express them per iteration
  /// (FLOPs/branch benchmarks) or per access (data-cache benchmark).
  double normalizer = 1.0;
};

/// Ground-truth activities, table[thread][slot].  Compute benchmarks have
/// one thread; the data-cache benchmark has one per chase thread, and the
/// analysis takes the median reading across them.
using ActivityTable = std::vector<std::vector<pmu::Activity>>;

/// The expectation basis of a benchmark: ideal-event labels and the matrix
/// E whose (slot, ideal-event) entry is the normalized expected count.
///
/// `ideal_events` gives each basis dimension as an executable functional
/// over ground-truth activity (the "ideal event" of Section III-B that may
/// not exist as a raw counter).  It is the bridge from basis coordinates
/// back to concrete workloads: the ground-truth value of a metric with
/// signature s on an activity a is  sum_k s[k] * ideal_events[k].ideal(a).
/// Invariant (checked by tests): measuring ideal_events over the slots'
/// normalized activities reproduces the matrix `e` column by column.
struct ExpectationBasis {
  std::vector<std::string> labels;  ///< One per column of `e`.
  linalg::Matrix e;                 ///< slots x ideal-events.
  std::vector<pmu::EventDefinition> ideal_events;  ///< One per label.
};

/// A fully-described CAT benchmark: the descriptor fields plus the
/// activity table behind activities().
struct Benchmark {
  std::string name;
  std::vector<KernelSlot> slots;
  ExpectationBasis basis;
  /// Concurrent threads per slot: the row count of activities().
  std::size_t threads = 1;

  /// The activity table.  A simulated benchmark runs its simulation on the
  /// first call from any copy; concurrent first calls wait for that one
  /// run, and every copy shares its result (or its exception).
  const ActivityTable& activities() const;

  /// True once activities() returns without work: always for a table
  /// supplied up front, after the first call for a simulated one.
  bool activities_ready() const;

  /// Traced wall time of the simulation behind activities(), in ns; 0 for
  /// a table supplied up front or a simulation run with tracing off.
  /// Forces the simulation like activities().
  std::int64_t simulate_ns() const;

  /// Supplies the table up front (analytic benchmarks).
  void set_activities(ActivityTable table);

  /// Defers the table to `simulate`, run once on first use inside a
  /// `cat.simulate` span (args category, units, workers).  `simulate`
  /// receives the worker count for its `units` independent units --
  /// min(units, hardware threads) -- and must be a pure function of what it
  /// captures, so the table never depends on that count.
  void set_simulation(std::string category, std::size_t units,
                      std::function<ActivityTable(int workers)> simulate);

  /// Convenience: the single-thread activities, one per slot (throws
  /// std::logic_error for a multi-threaded benchmark; used by compute
  /// benchmarks).
  std::vector<pmu::Activity> single_thread_activities() const;

  /// Structural contract of a well-formed descriptor: non-empty slots, a
  /// positive finite normalizer per slot, at least one thread, and an
  /// expectation basis whose row count matches the slot count with one
  /// finite column per label/ideal event.  Never forces a simulation.
  /// Violations report through the contract layer (std::invalid_argument
  /// under the default throw policy).  Called by core::run_campaign before
  /// collection, which then checks the table's shape.
  void validate() const;

 private:
  struct Simulated {
    ActivityTable table;
    std::int64_t simulate_ns = 0;
  };
  std::shared_future<Simulated> activities_;
};

}  // namespace catalyst::cat
