#include "core/campaign.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "core/contract.hpp"
#include "core/io.hpp"
#include "core/json.hpp"
#include "core/noise.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "sync/annotations.hpp"
#include "sync/mutex.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CATALYST_HAVE_FLOCK 1
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace catalyst::core {

const char* const kCheckpointFormat = "catalyst-checkpoint-v1";

namespace {

/// The set of checkpoint directories currently held by live leases.
struct LeaseRegistry {
  sync::Mutex mutex{"core.campaign.checkpoint_dirs"};
  std::unordered_set<std::string> active CATALYST_GUARDED_BY(mutex);
};

LeaseRegistry& lease_registry() noexcept {
  // Leaked: a lease may be released during static destruction.
  static LeaseRegistry* registry = new LeaseRegistry;
  return *registry;
}

std::string lease_file_path(const std::string& directory) {
  return directory + "/.catalyst-lease";
}

#if CATALYST_HAVE_FLOCK
/// Opens the lease file and takes the non-blocking exclusive flock.
/// Returns the locked fd, -1 if another process holds the lock, or throws
/// if the lease file cannot even be opened (unwritable directory).
int acquire_lease_lock(const std::string& directory) {
  std::error_code ec;  // Best effort; open() below reports the real error.
  std::filesystem::create_directories(directory, ec);
  const std::string path = lease_file_path(directory);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("checkpoint lease: cannot open '" + path + "'");
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}
#endif

}  // namespace

CheckpointDirLease::CheckpointDirLease(std::string directory)
    : directory_(std::move(directory)) {
  LeaseRegistry& reg = lease_registry();
  {
    const sync::LockGuard lock(reg.mutex);
    if (!reg.active.insert(directory_).second) {
      throw std::runtime_error(
          "checkpoint directory '" + directory_ +
          "' is already in use by another campaign in this process");
    }
  }
#if CATALYST_HAVE_FLOCK
  try {
    lock_fd_ = acquire_lease_lock(directory_);
  } catch (...) {
    const sync::LockGuard lock(reg.mutex);
    reg.active.erase(directory_);
    throw;
  }
  if (lock_fd_ < 0) {
    {
      const sync::LockGuard lock(reg.mutex);
      reg.active.erase(directory_);
    }
    throw std::runtime_error(
        "checkpoint directory '" + directory_ +
        "' is already in use by another process (lease file '" +
        lease_file_path(directory_) + "' is locked)");
  }
#endif
}

CheckpointDirLease::~CheckpointDirLease() {
#if CATALYST_HAVE_FLOCK
  if (lock_fd_ >= 0) {
    // close() drops the flock with it; no explicit LOCK_UN needed.
    ::close(lock_fd_);
    lock_fd_ = -1;
  }
#endif
  LeaseRegistry& reg = lease_registry();
  const sync::LockGuard lock(reg.mutex);
  reg.active.erase(directory_);
}

bool checkpoint_dir_locked(const std::string& directory) {
#if CATALYST_HAVE_FLOCK
  const std::string path = lease_file_path(directory);
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return false;  // No lease file => nobody can hold its lock.
  const bool locked = ::flock(fd, LOCK_EX | LOCK_NB) != 0;
  ::close(fd);  // Releases the probe lock if we won it.
  return locked;
#else
  (void)directory;
  return false;
#endif
}

std::string campaign_config_key(const pmu::Machine& machine,
                                const cat::Benchmark& benchmark,
                                const CampaignOptions& options) {
  std::ostringstream os;
  os << machine.name() << '|' << benchmark.name
     << "|reps=" << options.pipeline.repetitions
     << "|bthreads=" << benchmark.threads
     << "|slots=" << benchmark.slots.size()
     << "|events=" << machine.events().size() << "|plan="
     << (options.fault_plan != nullptr ? faults::describe(*options.fault_plan)
                                       : std::string("off"))
     << "|max_retries=" << options.resilience.max_retries;
  if (options.collection_mode != vpapi::CollectionMode::counting) {
    // Counting campaigns keep the historical key byte-for-byte; sampling
    // knobs only appear when they actually shape the data.
    os << "|mode=" << vpapi::to_string(options.collection_mode)
       << "|span=" << options.sample_schedule.kernel_span_ns
       << "|period=" << options.sample_schedule.period_ns
       << "|short=" << options.sample_schedule.short_period_ns
       << "|dither=" << (options.sample_schedule.dither ? 1 : 0);
  }
  return os.str();
}

namespace {

/// The thread-median, normalized readings of consecutive repetitions: one
/// checkpoint batch, or every repetition of an uncheckpointed campaign.
struct Batch {
  /// Machine-order indices of the events no benchmark thread quarantined.
  std::vector<std::size_t> events;
  /// measurements[i][r][k]: reading of events[i], repetition r, slot k.
  std::vector<std::vector<std::vector<double>>> measurements;
  /// Summed over benchmark threads, one entry per machine event, in machine
  /// order; present exactly when a fault plan is.
  std::optional<vpapi::CollectionReport> report;
  /// Sampling/strobed modes only: the sample traces behind the
  /// measurements, in (repetition, benchmark thread, run) order.  Never
  /// checkpointed (checkpointing is counting-only).
  std::vector<vpapi::RunTrace> traces;
};

/// What one batch's collector calls return, before the thread-median.
struct ThreadData {
  std::vector<vpapi::CollectionResult> threads;  ///< One per bench thread.
  std::optional<vpapi::CollectionReport> report;
  std::vector<vpapi::SampleTrace> traces;  ///< Sampled modes only.
};

/// Machine-order indices of `names`, which must be an ordered subsequence
/// of `all` (collectors drop quarantined rows but never reorder).
std::vector<std::size_t> subsequence_indices(
    const std::vector<std::string>& names,
    const std::vector<std::string>& all) {
  std::vector<std::size_t> indices;
  indices.reserve(names.size());
  std::size_t j = 0;
  for (const auto& name : names) {
    while (j < all.size() && all[j] != name) ++j;
    if (j == all.size()) {
      throw std::invalid_argument("event '" + name +
                                  "' is not in machine order");
    }
    indices.push_back(j++);
  }
  return indices;
}

/// Adds `src`'s counts into `dst` (both one entry per machine event, in
/// machine order).  An event's disposition is the worst either saw: faults
/// or retries anywhere make it recovered, a quarantine anywhere quarantined.
void add_report(vpapi::CollectionReport& dst,
                const vpapi::CollectionReport& src) {
  for (std::size_t e = 0; e < dst.events.size(); ++e) {
    vpapi::EventReport& acc = dst.events[e];
    const vpapi::EventReport& add = src.events[e];
    acc.read_attempts += add.read_attempts;
    acc.retries += add.retries;
    acc.wraps_corrected += add.wraps_corrected;
    for (std::size_t f = 0; f < acc.faults.size(); ++f) {
      acc.faults[f] += add.faults[f];
    }
    acc.disposition = std::max(acc.disposition, add.disposition);
  }
  dst.total_retries += src.total_retries;
  dst.start_retries += src.start_retries;
}

std::string checkpoint_path(const std::string& directory, std::size_t batch) {
  std::ostringstream os;
  os << directory << "/batch-" << batch << ".json";
  return os.str();
}

/// Serializes a one-repetition batch.
json::Value batch_to_json(const Batch& batch,
                          const std::vector<std::string>& all_events,
                          const std::string& config_key, std::size_t index) {
  json::Value root = json::Value::object();
  root["format"] = kCheckpointFormat;
  root["config"] = config_key;
  root["batch"] = static_cast<double>(index);
  json::Value events = json::Value::array();
  for (const std::size_t e : batch.events) events.push_back(all_events[e]);
  root["events"] = std::move(events);
  json::Value meas = json::Value::array();
  for (const auto& per_event : batch.measurements) {
    json::Value row = json::Value::array();
    for (double v : per_event.front()) row.push_back(v);
    meas.push_back(std::move(row));
  }
  root["measurements"] = std::move(meas);
  if (batch.report.has_value()) {
    root["report"] = collection_report_to_json(*batch.report);
  }
  return root;
}

/// Parses and validates one checkpoint file's text.  Throws (JsonError or
/// std::invalid_argument) on anything suspicious; the caller treats every
/// throw as "batch not done" and re-collects.
Batch batch_from_json(const std::string& text, const std::string& config_key,
                      std::size_t index, std::size_t n_slots,
                      const std::vector<std::string>& all_events,
                      bool with_report) {
  const json::Value root = json::parse(text);
  if (root.at("format").as_string() != kCheckpointFormat) {
    throw std::invalid_argument("checkpoint: unsupported format");
  }
  if (root.at("config").as_string() != config_key) {
    throw std::invalid_argument("checkpoint: campaign config mismatch");
  }
  if (static_cast<std::size_t>(root.at("batch").as_number()) != index) {
    throw std::invalid_argument("checkpoint: batch index mismatch");
  }
  Batch b;
  std::vector<std::string> names;
  for (const auto& n : root.at("events").as_array()) {
    names.push_back(n.as_string());
  }
  b.events = subsequence_indices(names, all_events);
  const auto& meas = root.at("measurements").as_array();
  if (meas.size() != b.events.size()) {
    throw std::invalid_argument("checkpoint: measurements/events mismatch");
  }
  for (const auto& row : meas) {
    std::vector<double> vec;
    for (const auto& v : row.as_array()) vec.push_back(v.as_number());
    if (vec.size() != n_slots) {
      throw std::invalid_argument("checkpoint: measurement row width");
    }
    b.measurements.push_back({std::move(vec)});
  }
  if (with_report) {
    // Stored sparse (untouched events are implicit); re-expand to one
    // entry per machine event.
    vpapi::CollectionReport sparse =
        collection_report_from_json(root.at("report"));
    b.report.emplace();
    b.report->events.resize(all_events.size());
    for (std::size_t e = 0; e < all_events.size(); ++e) {
      b.report->events[e].name = all_events[e];
    }
    std::vector<std::string> touched;
    for (const auto& e : sparse.events) touched.push_back(e.name);
    const auto at = subsequence_indices(touched, all_events);
    for (std::size_t i = 0; i < at.size(); ++i) {
      b.report->events[at[i]] = std::move(sparse.events[i]);
    }
    b.report->total_retries = sparse.total_retries;
    b.report->start_retries = sparse.start_retries;
  }
  return b;
}

/// Stage 1: collects repetitions [first, first + count) on every benchmark
/// thread.  Thread t reads repetition r at id r * n_threads + t, so its
/// counters see noise independent of every other thread's, as separate
/// hardware threads would, and any split into batches reads exactly what
/// one uncheckpointed campaign reads.
ThreadData collect_threads(
    const pmu::Machine& machine, const std::vector<std::string>& all_events,
    const std::vector<std::vector<pmu::Activity>>& thread_acts,
    std::size_t first, std::size_t count, const CampaignOptions& options) {
  const std::size_t n_threads = thread_acts.size();
  const int workers = options.pipeline.collection_threads;
  ThreadData out;
  out.threads.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    if (options.pipeline.cancel != nullptr) options.pipeline.cancel->check();
    const std::vector<std::size_t> ids =
        vpapi::repetition_ids(count, first * n_threads + t, n_threads);
    if (options.collection_mode != vpapi::CollectionMode::counting) {
      vpapi::SampledCollectionResult sr = vpapi::collect_sampled(
          machine, all_events, thread_acts[t], ids, options.collection_mode,
          options.sample_schedule, workers, options.sample_clock);
      out.threads.push_back(std::move(sr.data));
      out.traces.push_back(std::move(sr.trace));
    } else if (options.fault_plan != nullptr) {
      vpapi::ResilientCollectionResult rr = vpapi::collect_resilient(
          machine, all_events, thread_acts[t], ids, workers,
          options.fault_plan, options.resilience);
      out.threads.push_back(std::move(rr.data));
      if (!out.report.has_value()) {
        out.report = std::move(rr.report);
        // Rebuilt from the union over threads by median_normalize().
        out.report->quarantined.clear();
      } else {
        add_report(*out.report, rr.report);
      }
    } else {
      out.threads.push_back(
          vpapi::collect(machine, all_events, thread_acts[t], ids, workers));
    }
  }
  return out;
}

/// Stages 2-3: the median across benchmark threads of every (event,
/// repetition, slot) reading, normalized per slot.  An event quarantined on
/// any thread is dropped.
Batch median_normalize(ThreadData&& data,
                       const std::vector<std::string>& all_events,
                       const std::vector<double>& inv_normalizer) {
  const std::size_t n_threads = data.threads.size();
  const std::size_t n_events = all_events.size();
  const std::size_t n_reps = data.threads.front().repetitions.size();
  const std::size_t n_slots = inv_normalizer.size();
  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  // rows[t][e]: event e's row in thread t's data, kAbsent if quarantined.
  std::vector<std::vector<std::size_t>> rows(
      n_threads, std::vector<std::size_t>(n_events, kAbsent));
  for (std::size_t t = 0; t < n_threads; ++t) {
    const auto at = subsequence_indices(data.threads[t].event_names,
                                        all_events);
    for (std::size_t i = 0; i < at.size(); ++i) rows[t][at[i]] = i;
  }
  Batch batch;
  for (std::size_t e = 0; e < n_events; ++e) {
    bool kept = true;
    for (std::size_t t = 0; t < n_threads; ++t) {
      kept = kept && rows[t][e] != kAbsent;
    }
    if (kept) {
      batch.events.push_back(e);
    } else if (data.report.has_value()) {
      data.report->quarantined.push_back(all_events[e]);
    }
  }

  // Each output row reuses thread 0's row of the same reading: the median
  // at slot k only reads slot k of every thread before overwriting it.
  batch.measurements.resize(batch.events.size());
  std::vector<double> thread_vals(n_threads);
  std::vector<const std::vector<double>*> thread_rows(n_threads);
  for (std::size_t i = 0; i < batch.events.size(); ++i) {
    const std::size_t e = batch.events[i];
    batch.measurements[i].reserve(n_reps);
    for (std::size_t r = 0; r < n_reps; ++r) {
      std::vector<double> out =
          std::move(data.threads[0].repetitions[r].values[rows[0][e]]);
      thread_rows[0] = &out;
      for (std::size_t t = 1; t < n_threads; ++t) {
        thread_rows[t] = &data.threads[t].repetitions[r].values[rows[t][e]];
      }
      for (std::size_t k = 0; k < n_slots; ++k) {
        for (std::size_t t = 0; t < n_threads; ++t) {
          thread_vals[t] = (*thread_rows[t])[k];
        }
        const double med =
            n_threads == 1 ? thread_vals[0] : median(thread_vals);
        out[k] = med * inv_normalizer[k];
      }
      batch.measurements[i].push_back(std::move(out));
    }
  }

  batch.report = std::move(data.report);
  // Interleave the per-thread traces into (repetition, thread, run) order.
  if (!data.traces.empty()) {
    const std::size_t runs = data.traces.front().runs.size() / n_reps;
    for (std::size_t r = 0; r < n_reps; ++r) {
      for (auto& trace : data.traces) {
        for (std::size_t g = 0; g < runs; ++g) {
          batch.traces.push_back(std::move(trace.runs[r * runs + g]));
        }
      }
    }
  }
  return batch;
}

}  // namespace

CampaignResult run_campaign(const pmu::Machine& machine,
                            const cat::Benchmark& benchmark,
                            const std::vector<MetricSignature>& signatures,
                            const CampaignOptions& options) {
  CATALYST_REQUIRE_AS(options.pipeline.repetitions >= 2, std::invalid_argument,
                      "run_campaign: need >= 2 repetitions for the RNMSE "
                      "filter");
  CATALYST_REQUIRE_AS(!benchmark.slots.empty(), std::invalid_argument,
                      "run_campaign: benchmark has no slots");
  benchmark.validate();
  CATALYST_REQUIRE_AS(!machine.events().empty(), std::invalid_argument,
                      "run_campaign: machine publishes no events");
  const bool sampled =
      options.collection_mode != vpapi::CollectionMode::counting;
  if (sampled) {
    options.sample_schedule.validate();
    CATALYST_REQUIRE_AS(
        options.fault_plan == nullptr || !options.fault_plan->enabled(),
        std::invalid_argument,
        "run_campaign: fault injection is counting-mode only (the sampling "
        "collector has no per-kernel retry point)");
    CATALYST_REQUIRE_AS(
        options.checkpoint.directory.empty(), std::invalid_argument,
        "run_campaign: checkpointing is counting-mode only (sample traces "
        "do not fit the checkpoint format)");
  }
  // A simulated benchmark builds its activities here, on first use, inside
  // its own cat.simulate span -- ahead of stage.collect, so collection
  // timings stay collection-only.
  const bool simulates = !benchmark.activities_ready();
  const cat::ActivityTable& thread_acts = benchmark.activities();
  const std::size_t n_threads = benchmark.threads;
  const std::size_t n_slots = benchmark.slots.size();
  CATALYST_REQUIRE_AS(thread_acts.size() == n_threads, std::invalid_argument,
                      "run_campaign: activity table has the wrong thread "
                      "count");
  for (const auto& row : thread_acts) {
    CATALYST_REQUIRE_AS(row.size() == n_slots, std::invalid_argument,
                        "run_campaign: activity table has the wrong slot "
                        "count");
  }

  const std::vector<std::string> all_events = machine.event_names();
  const std::size_t n_events = all_events.size();
  // Per-slot normalization is a multiply in the hot loop, not a divide.
  std::vector<double> inv_normalizer(n_slots);
  for (std::size_t k = 0; k < n_slots; ++k) {
    inv_normalizer[k] = 1.0 / benchmark.slots[k].normalizer;
  }

  const bool checkpointing = !options.checkpoint.directory.empty();
  const bool with_report = !sampled && options.fault_plan != nullptr;
  std::string config_key;
  std::optional<CheckpointDirLease> lease;
  if (checkpointing) {
    config_key = campaign_config_key(machine, benchmark, options);
    lease.emplace(options.checkpoint.directory);
    std::filesystem::create_directories(options.checkpoint.directory);
  }

  // --- Stages 1-3, one batch per repetition when checkpointing ------------
  CampaignResult out;
  const std::size_t reps = options.pipeline.repetitions;
  const std::size_t batch_reps = checkpointing ? 1 : reps;
  out.batches_total = reps / batch_reps;
  std::int64_t collect_ns = 0;
  std::int64_t median_ns = 0;
  std::vector<Batch> batches;
  batches.reserve(out.batches_total);
  for (std::size_t b = 0; b < out.batches_total; ++b) {
    obs::Span batch_span(checkpointing ? "campaign.batch" : nullptr);
    batch_span.arg("batch", b);
    std::optional<Batch> loaded;
    ThreadData data;
    obs::Span collect_span("stage.collect");
    collect_span.arg("machine", machine.name());
    collect_span.arg("events", n_events);
    collect_span.arg("slots", n_slots);
    collect_span.arg("threads", n_threads);
    if (checkpointing && options.checkpoint.resume) {
      obs::Span load_span("campaign.checkpoint.load");
      load_span.arg("batch", b);
      try {
        loaded = batch_from_json(
            read_text_file(checkpoint_path(options.checkpoint.directory, b)),
            config_key, b, n_slots, all_events, with_report);
      } catch (const std::exception&) {
        // Missing, truncated, corrupt, or mismatched checkpoint: the batch
        // is simply not done yet.  Re-collecting it is always safe because
        // readings are pure functions of their coordinates.
      }
      load_span.arg("hit", loaded.has_value());
    }
    if (!loaded) {
      data = collect_threads(machine, all_events, thread_acts, b * batch_reps,
                             batch_reps, options);
    }
    collect_span.end();
    collect_ns += collect_span.duration_ns();
    batch_span.arg("resumed", loaded.has_value());
    if (loaded) {
      ++out.batches_resumed;
      batches.push_back(std::move(*loaded));
      continue;
    }
    obs::Span median_span("stage.median_normalize");
    batches.push_back(
        median_normalize(std::move(data), all_events, inv_normalizer));
    median_span.end();
    median_ns += median_span.duration_ns();
    if (checkpointing) {
      obs::Span write_span("campaign.checkpoint.write");
      write_span.arg("batch", b);
      write_text_file_atomic(
          checkpoint_path(options.checkpoint.directory, b),
          json::dump(batch_to_json(batches.back(), all_events, config_key,
                                   b)));
    }
  }
  if (checkpointing) {
    obs::count(obs::names::kCampaignBatches, out.batches_total);
    obs::count(obs::names::kCampaignBatchesResumed, out.batches_resumed);
  }
  obs::count(obs::names::kPipelineEventsMeasured, n_events);

  // --- merge: quarantine union, surviving events, report ---------------------
  std::vector<std::size_t> batches_kept(n_events, 0);
  for (const Batch& b : batches) {
    for (const std::size_t e : b.events) ++batches_kept[e];
  }
  std::vector<std::string> final_events;
  std::vector<std::string> quarantined;
  std::vector<std::size_t> final_row(n_events, 0);
  for (std::size_t e = 0; e < n_events; ++e) {
    if (batches_kept[e] == batches.size()) {
      final_row[e] = final_events.size();
      final_events.push_back(all_events[e]);
    } else {
      quarantined.push_back(all_events[e]);
    }
  }
  std::vector<std::vector<std::vector<double>>> measurements(
      final_events.size());
  std::optional<vpapi::CollectionReport> report;
  for (Batch& b : batches) {
    for (std::size_t i = 0; i < b.events.size(); ++i) {
      const std::size_t e = b.events[i];
      if (batches_kept[e] != batches.size()) continue;
      auto& dst = measurements[final_row[e]];
      if (dst.empty()) {
        dst = std::move(b.measurements[i]);
      } else {
        for (auto& rep : b.measurements[i]) dst.push_back(std::move(rep));
      }
    }
    if (!b.report.has_value()) continue;
    if (!report.has_value()) {
      report = std::move(b.report);
    } else {
      add_report(*report, *b.report);
    }
  }
  if (report.has_value()) report->quarantined = quarantined;

  out.result = analyze_measurements(
      benchmark.basis.e, std::move(final_events), std::move(measurements),
      signatures, options.pipeline);
  // Collection happened before analyze_measurements built its timing list;
  // splice the two collection-side stages in front so stage_timings reads in
  // true pipeline order.
  if (collect_ns > 0 || median_ns > 0) {
    out.result.stage_timings.insert(
        out.result.stage_timings.begin(),
        {obs::StageTiming{"collect", collect_ns},
         obs::StageTiming{"median_normalize", median_ns}});
  }
  // A traced simulation this run waited for leads the list: it built the
  // run's inputs.
  if (simulates && benchmark.simulate_ns() > 0) {
    out.result.stage_timings.insert(
        out.result.stage_timings.begin(),
        obs::StageTiming{"simulate", benchmark.simulate_ns()});
  }
  out.result.quarantined_events = std::move(quarantined);
  out.result.collection = std::move(report);
  if (sampled) {
    vpapi::SampleTrace& trace = out.result.sample_trace.emplace();
    trace.mode = options.collection_mode;
    trace.schedule = options.sample_schedule;
    trace.kernels = n_slots;
    for (Batch& b : batches) {
      for (auto& run : b.traces) trace.runs.push_back(std::move(run));
    }
  }
  return out;
}

}  // namespace catalyst::core
