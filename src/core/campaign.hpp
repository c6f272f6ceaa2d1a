// catalyst/core -- the live pipeline driver: collection campaigns.
//
// run_campaign() is the one code path that collects live data: it runs the
// collector once per concurrent benchmark thread, takes the thread-median
// of every (event, repetition, slot) reading (Section IV's cache-noise
// suppressor), normalizes per slot and hands the result to
// analyze_measurements().  run_pipeline() is run_campaign() with default
// options.  The options pick the rest:
//   * collector -- vpapi::collect by default; vpapi::collect_resilient
//     (retry / quarantine / wrap correction, see vpapi/collector.hpp) when
//     a fault plan is passed, which also attaches its CollectionReport;
//     vpapi::collect_sampled in the sampling/strobed modes;
//   * checkpointing -- the repetitions are collected one BATCH at a time,
//     each persisted as an atomic JSON checkpoint, so an interrupted
//     campaign can `--resume` from the last completed batch without
//     re-executing finished work.
//
// Bit-identity guarantees (all consequences of counter-keyed noise/faults):
//   * every option combination that collects the same data reads it at the
//     same coordinates: benchmark thread t reads repetition r at repetition
//     id r*n_threads + t, whether all repetitions come from one collector
//     call or each batch from its own;
//   * interrupted + resumed: identical to the uninterrupted campaign;
//   * any worker thread count: per-unit decisions are pure functions of
//     coordinates and the cross-batch merge is additive/set-union.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cat/benchmark.hpp"
#include "core/pipeline.hpp"
#include "faults/faults.hpp"
#include "pmu/machine.hpp"
#include "vpapi/collector.hpp"

namespace catalyst::core {

/// Exclusive claim on a checkpoint directory.  Two campaigns checkpointing
/// into the same directory would interleave batch-NNN.json files from
/// different configurations; the second writer's files win the rename race
/// and the first campaign resumes from foreign batches.  The lease makes
/// that a loud error instead: acquiring a directory another live lease
/// holds throws std::runtime_error.  run_campaign() takes one for the
/// duration of the collection loop whenever checkpointing is on; catalystd
/// holds one for its service checkpoint directory for its whole lifetime.
///
/// Two layers, so the guarantee spans processes:
///   * in-process registry (fast path, precise error message) -- catches
///     two campaigns inside one process;
///   * OS-level flock(2) on `<directory>/.catalyst-lease` -- catches a
///     daemon and a concurrent CLI run, or two daemons, sharing the
///     directory.  flock conflicts between distinct open file
///     descriptions, so even same-process double-acquisition would fail at
///     this layer if the registry were bypassed.  The lock dies with the
///     process (kill -9 included), so no stale-lease recovery is needed.
class CheckpointDirLease {
 public:
  /// Claims `directory` (keyed verbatim -- callers pass the same string
  /// they pass CheckpointOptions; the directory is created if missing so
  /// the lease file has somewhere to live).  Throws std::runtime_error if
  /// any other live lease -- in this process or any other -- holds it.
  explicit CheckpointDirLease(std::string directory);
  ~CheckpointDirLease();

  CheckpointDirLease(const CheckpointDirLease&) = delete;
  CheckpointDirLease& operator=(const CheckpointDirLease&) = delete;

  const std::string& directory() const noexcept { return directory_; }

 private:
  std::string directory_;
  int lock_fd_ = -1;  ///< flock'd lease-file fd; -1 when flock unavailable.
};

/// True when some live lease (any process) holds `directory`'s OS-level
/// lock.  Probes with a fresh open + flock(LOCK_NB) and releases
/// immediately; never blocks.  The cross-process death test calls this from
/// a forked child to prove the lock is visible outside the owning process.
/// Always false on platforms without flock.
bool checkpoint_dir_locked(const std::string& directory);

/// Where (and whether) to persist per-batch checkpoints.
struct CheckpointOptions {
  /// Directory for batch-NNN.json files; empty disables checkpointing.
  /// Created if missing.  Every file is written atomically
  /// (write-temp-then-rename), so a crash never leaves a torn checkpoint.
  std::string directory;
  /// Reuse completed, matching checkpoints instead of re-collecting.
  /// Corrupt / truncated / mismatched files are treated as not-done.
  bool resume = false;
};

/// Everything a campaign needs beyond the machine + benchmark pair.
struct CampaignOptions {
  PipelineOptions pipeline;
  /// Fault injection.  nullptr runs the clean collector; any plan (even a
  /// disabled one) runs the resilient collector and attaches its report,
  /// which makes the archive v2.  Only the counting mode supports fault
  /// injection: the sampling collector reads running counters on a timer
  /// and has no per-kernel retry point.
  const faults::FaultPlan* fault_plan = nullptr;
  vpapi::ResilienceOptions resilience;
  /// Checkpointing is counting-only for now: a sampling batch's trace does
  /// not fit the catalyst-checkpoint-v1 row format, and silently dropping
  /// it on resume would desynchronize the archive from the measurements.
  /// run_campaign throws std::invalid_argument on a non-counting mode with
  /// a checkpoint directory (or an enabled fault plan).
  CheckpointOptions checkpoint;
  /// How the collection stage reads the counters (vpapi/sampling.hpp).
  vpapi::CollectionMode collection_mode = vpapi::CollectionMode::counting;
  /// Virtual-time schedule for the sampling/strobed modes (ignored when
  /// counting).
  vpapi::SampleSchedule sample_schedule;
  /// Paces sampling-mode collection in virtual time; nullptr skips pacing
  /// (measured values never depend on the clock).
  faults::Clock* sample_clock = nullptr;
};

struct CampaignResult {
  /// Full analysis over the surviving (non-quarantined) events, with
  /// `quarantined_events`, `collection` (given a fault plan) and
  /// `sample_trace` (sampling modes) populated; make_archive() turns it
  /// into the measurement archive, v1 unless one of those adds a v2
  /// payload.
  PipelineResult result;
  /// One per repetition when checkpointing, else one for all of them.
  std::size_t batches_total = 0;
  std::size_t batches_resumed = 0;  ///< Batches satisfied from checkpoints.
};

/// The checkpoint format marker ("catalyst-checkpoint-v1").
extern const char* const kCheckpointFormat;

/// Identity of a campaign's configuration; resume refuses checkpoints whose
/// stored key differs (different machine, benchmark, repetition count,
/// fault plan, ... would make the cached batch silently wrong).
std::string campaign_config_key(const pmu::Machine& machine,
                                const cat::Benchmark& benchmark,
                                const CampaignOptions& options);

/// Collects (checkpointing and resuming per CampaignOptions::checkpoint),
/// merges the batches, and runs the analysis stages on the surviving
/// events.  Polls options.pipeline.cancel before every collector call.
/// Throws std::runtime_error (via analyze_measurements) if every event ends
/// up quarantined.
CampaignResult run_campaign(const pmu::Machine& machine,
                            const cat::Benchmark& benchmark,
                            const std::vector<MetricSignature>& signatures,
                            const CampaignOptions& options = {});

}  // namespace catalyst::core
