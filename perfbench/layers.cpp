// perfbench_layers -- the benchmark's traced in-process replay.
//
//   perfbench_layers ARCHIVE_DIR OUT_DIR REPS RATE REQUESTS
//
// Replays the operations of the benchmark's workloads in-process with the
// library's obs tracer on: a cold live `catalyst analyze`, a cold
// `catalyst analyze --from` and a warm catalystd SUBMIT (encode, decode,
// engine) per category, then an in-process ServiceCore fed at RATE
// requests/s.  The library spans its own stages (stage.collect,
// stage.median_normalize, stage.noise_filter, ..., service.analyze,
// service.request); the few outer calls it does not span (category set-up,
// machine build, archive read and write, the report, wire encode and
// decode) are wrapped here in obs::Span with the analysis' request id.
// Every per-layer metric is read from those spans.
//
// Each result is checked against the untimed path (run_pipeline with the
// tracer off, the archive written by `catalyst collect`, render_result).
// Writes OUT_DIR/trace.json (Chrome trace_event), OUT_DIR/self_time.txt and
// the reference report bodies OUT_DIR/<category>.{rounded,plain}.txt, and
// prints one JSON object of per-layer metrics (medians over REPS passes) on
// stdout.  Exit 1 on any mismatch.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/core.hpp"
#include "core/parallel.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace {

using namespace catalyst;
using SteadyClock = std::chrono::steady_clock;
using Spans = std::vector<obs::SpanRecord>;

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("output mismatch: " + what);
}

double ms_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

double duration_ms(const obs::SpanRecord& s) {
  return double(s.end_ns - s.start_ns) / 1e6;
}

/// Summed duration (ms) of the spans named `name`.
double span_ms(const Spans& spans, std::string_view name) {
  double ms = 0;
  bool found = false;
  for (const obs::SpanRecord& s : spans) {
    if (name == s.name) {
      ms += duration_ms(s);
      found = true;
    }
  }
  require(found, "no " + std::string(name) + " span");
  return ms;
}

/// Value of `key` in the packed args of the first span named `name`.
std::string span_arg(const Spans& spans, std::string_view name,
                     const std::string& key) {
  for (const obs::SpanRecord& s : spans) {
    if (name != s.name) continue;
    const std::string args = s.args;
    const auto pos = args.find(key + "=");
    if (pos == std::string::npos) break;
    const auto begin = pos + key.size() + 1;
    return args.substr(begin, args.find(';', begin) - begin);
  }
  throw std::runtime_error("no " + key + " arg on a " + std::string(name) +
                           " span");
}

/// Runs `body` inside an obs span tagged with the analysis' request id.
template <typename Body>
void traced(const char* name, std::uint64_t request, Body&& body) {
  obs::Span span(name);
  span.arg("request", request);
  body();
}

/// The CLI's report body (everything after its one header line).
std::string cli_body(const core::PipelineResult& result, bool rounded) {
  return "\n" + core::format_selected_events(result) + "\n" +
         core::format_metric_table("metrics", result.metrics, rounded);
}

struct Category {
  std::string name;
  std::string archive_text;  ///< As written by `catalyst collect`.
  core::MeasurementArchive archive;
  std::string rounded_body;  ///< Of the untimed run_pipeline reference.
  std::string plain_body;
};

/// State of the replay passes: request ids, the time spent in replayed
/// operations, every span recorded so far and the per-layer samples.
struct Replay {
  std::uint64_t request = 0;
  double busy_ms = 0;
  Spans spans;
  std::map<std::string, std::vector<double>> samples;

  /// Moves the spans recorded since the last drain out of the tracer's
  /// ring into `spans`, and returns them.
  Spans drain() {
    obs::TraceBuffer& ring = obs::Tracer::instance().buffer();
    require(ring.dropped() == 0, "trace ring overflowed");
    Spans recent = ring.snapshot();
    ring.clear();
    spans.insert(spans.end(), recent.begin(), recent.end());
    return recent;
  }

  void sample(const std::string& metric, double value) {
    samples[metric].push_back(value);
  }
};

/// One cold `catalyst analyze <cat>` (live), plus the archive write of
/// `catalyst collect`.
void replay_live(Replay& r, const Category& c) {
  const std::string& cat = c.name;
  const std::uint64_t id = ++r.request;
  std::optional<service::CategorySetup> setup;
  std::optional<pmu::Machine> machine;
  core::PipelineResult result;
  std::string body;
  std::string archive_text;
  const auto t0 = SteadyClock::now();
  {
    obs::Span op("cli.live");
    op.arg("request", id);
    op.arg("category", cat);
    traced("cat.setup", id, [&] { setup = service::category_setup(cat); });
    traced("pmu.machine_build", id, [&] {
      machine = service::machine_by_name(setup->default_machine);
    });
    result = core::run_pipeline(*machine, setup->benchmark, setup->signatures,
                                setup->options);
    traced("core.report", id, [&] { body = cli_body(result, true); });
    traced("core.archive_write", id, [&] {
      archive_text = core::save_archive(
          core::make_archive(*machine, setup->benchmark, result));
    });
  }
  r.busy_ms += ms_since(t0);
  require(body == c.rounded_body, cat + " live report");
  require(archive_text == c.archive_text, cat + " archive bytes");
  if (!obs::enabled()) return;

  const Spans spans = r.drain();
  r.sample("cat.setup_ms." + cat, span_ms(spans, "cat.setup"));
  r.sample("pmu.machine_build_ms." + setup->default_machine,
           span_ms(spans, "pmu.machine_build"));
  r.sample("vpapi.collect_ms." + cat, span_ms(spans, "stage.collect"));
  r.sample("vpapi.runs_per_repetition." + cat,
           std::stod(span_arg(spans, "vpapi.collect", "groups")));
  for (const std::string stage :
       {"median_normalize", "noise_filter", "projection", "qrcp", "metrics"}) {
    r.sample("core." + stage + "_ms." + cat, span_ms(spans, "stage." + stage));
  }
  r.sample("core.events_kept." + cat, double(result.noise.kept.size()));
  r.sample("core.events_selected." + cat, double(result.qr.selected.size()));
  r.sample("core.report_ms." + cat, span_ms(spans, "core.report"));
  r.sample("core.archive_write_ms." + cat,
           span_ms(spans, "core.archive_write"));
  r.sample("core.archive_bytes." + cat, double(archive_text.size()));
}

/// One cold `catalyst analyze --from <archive> <cat>`.
void replay_offline(Replay& r, const Category& c) {
  const std::string& cat = c.name;
  const std::uint64_t id = ++r.request;
  std::string body;
  const auto t0 = SteadyClock::now();
  {
    obs::Span op("cli.offline");
    op.arg("request", id);
    op.arg("category", cat);
    std::optional<service::CategorySetup> setup;
    traced("cat.setup", id, [&] { setup = service::category_setup(cat); });
    std::optional<pmu::Machine> machine;
    traced("pmu.machine_build", id, [&] {
      machine = service::machine_by_name(setup->default_machine);
    });
    core::MeasurementArchive archive;
    traced("core.archive_read", id,
           [&] { archive = core::load_archive(c.archive_text); });
    const core::PipelineResult result =
        core::analyze_archive(archive, setup->signatures, setup->options);
    traced("core.report", id, [&] { body = cli_body(result, true); });
  }
  r.busy_ms += ms_since(t0);
  require(body == c.rounded_body, cat + " offline report");
  if (!obs::enabled()) return;

  const Spans spans = r.drain();
  r.sample("cat.setup_ms." + cat, span_ms(spans, "cat.setup"));
  r.sample("core.archive_read_ms." + cat, span_ms(spans, "core.archive_read"));
}

/// One warm catalystd SUBMIT without the socket: wire encode, frame decode,
/// engine.
void replay_submit(Replay& r, const Category& c,
                   service::SharedCatalog& catalog) {
  const std::string& cat = c.name;
  const std::uint64_t id = ++r.request;
  service::EngineOutcome outcome;
  const auto t0 = SteadyClock::now();
  {
    obs::Span op("service.submit");
    op.arg("request", id);
    op.arg("category", cat);
    std::string frame;
    traced("service.encode", id, [&] {
      frame = service::wire::encode_frame(
          service::wire::FrameType::submit,
          service::wire::encode_submit(
              service::packed_submit_from_archive(c.archive, cat)));
    });
    service::wire::SubmitBody submit;
    traced("service.decode", id, [&] {
      service::wire::FrameDecoder decoder;
      decoder.feed(frame.data(), frame.size());
      const auto decoded = decoder.next();
      if (!decoded) throw std::runtime_error("frame did not decode");
      submit = service::wire::decode_submit(decoded->payload);
    });
    outcome = service::run_analysis(catalog, submit, nullptr);
  }
  r.busy_ms += ms_since(t0);
  require(outcome.ok && outcome.text == c.plain_body.substr(1),
          cat + " engine result");
  if (!obs::enabled()) return;

  const Spans spans = r.drain();
  r.sample("service.encode_us." + cat,
           1000.0 * span_ms(spans, "service.encode"));
  r.sample("service.decode_us." + cat,
           1000.0 * span_ms(spans, "service.decode"));
  r.sample("service.engine_ms." + cat, span_ms(spans, "service.analyze"));
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

/// In-process ServiceCore under an open-loop rate: 2 workers, one
/// submitter.  Queue wait is submit -> the worker's service.request span
/// start, both on the obs tracer's clock.
void replay_queue(Replay& r, const std::vector<Category>& cats, double rate,
                  std::size_t requests) {
  faults::RealClock clock;
  service::ServiceCore::Options options;
  options.workers = 2;
  options.clock = &clock;
  service::ServiceCore daemon(options);
  for (const auto& c : cats) daemon.catalog().category(c.name);

  obs::Tracer& tracer = obs::Tracer::instance();
  std::map<std::uint64_t, std::int64_t> submitted_ns;
  std::map<std::uint64_t, std::size_t> category_of;
  std::size_t attempts = 0;
  std::size_t retries = 0;
  std::string failure;
  constexpr std::size_t kSessions = 8;

  core::parallel_for(3, 3, [&](std::size_t unit) {
    if (unit != 0) {
      daemon.worker_loop();
      return;
    }
    try {
      const auto start = SteadyClock::now();
      std::map<std::uint64_t, std::size_t> pending;  // id -> session
      const auto collect = [&](bool wait) {
        for (auto it = pending.begin(); it != pending.end();) {
          const auto out = daemon.poll(it->second, it->first);
          using Kind = service::PollOutcome::Kind;
          if (out.kind == Kind::queued || out.kind == Kind::analyzing) {
            ++it;
            continue;
          }
          const Category& c = cats[category_of[it->first]];
          if (out.kind != Kind::result || out.text != c.plain_body.substr(1)) {
            failure = c.name + " queued analysis";
          }
          it = pending.erase(it);
        }
        if (wait && !pending.empty()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      };
      for (std::size_t i = 0; i < requests; ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(double(i) / rate)));
        const std::size_t k = i % cats.size();
        const std::size_t session = i % kSessions;
        ++attempts;
        const std::int64_t t = tracer.now_ns();
        const auto out = daemon.submit(
            session,
            service::packed_submit_from_archive(cats[k].archive, cats[k].name));
        if (out.kind == service::SubmitOutcome::Kind::accepted) {
          submitted_ns[out.request_id] = t;
          category_of[out.request_id] = k;
          pending[out.request_id] = session;
        } else if (out.kind == service::SubmitOutcome::Kind::retry_after) {
          ++retries;
        } else {
          failure = "submit rejected: " + out.message;
        }
        collect(false);
      }
      while (!pending.empty()) collect(true);
    } catch (const std::exception& e) {
      failure = e.what();
    }
    daemon.begin_shutdown();
  });
  require(failure.empty(), failure);

  std::vector<double> waits;
  for (const obs::SpanRecord& s : r.drain()) {
    if (std::string_view(s.name) != "service.request") continue;
    const auto id = std::stoull(span_arg({s}, "service.request", "id"));
    const auto it = submitted_ns.find(id);
    if (it != submitted_ns.end()) {
      waits.push_back(double(s.start_ns - it->second) / 1e6);
    }
  }
  require(waits.size() == submitted_ns.size(), "queue spans per request");
  r.sample("service.queue_wait_ms_p50", quantile(waits, 0.5));
  r.sample("service.queue_wait_ms_p99", quantile(waits, 0.99));
  r.sample("service.retry_after_ratio", double(retries) / double(attempts));
}

/// Self time per span name: a span's duration minus that of the spans
/// directly nested in it on the same thread.
void write_self_time(const std::string& path, Spans spans) {
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<double> self_ms(spans.size());
  std::vector<std::size_t> open;  // enclosing spans, innermost last
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    while (!open.empty() && (spans[open.back()].thread_id != s.thread_id ||
                             spans[open.back()].end_ns <= s.start_ns)) {
      open.pop_back();
    }
    self_ms[i] = duration_ms(s);
    if (!open.empty()) self_ms[open.back()] -= duration_ms(s);
    open.push_back(i);
  }
  struct Row {
    std::size_t count = 0;
    double total_ms = 0, self_ms = 0;
  };
  std::map<std::string, Row> rows;
  double all_self = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Row& row = rows[spans[i].name];
    row.count += 1;
    row.total_ms += duration_ms(spans[i]);
    row.self_ms += self_ms[i];
    all_self += self_ms[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %8s %12s %12s %7s\n", "span",
                "count", "total_ms", "self_ms", "self%");
  out << line;
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof line, "%-28s %8zu %12.3f %12.3f %6.2f%%\n",
                  name.c_str(), row.count, row.total_ms, row.self_ms,
                  100.0 * row.self_ms / all_self);
    out << line;
  }
  core::write_text_file(path, out.str());
}

int replay(const std::string& archive_dir, const std::string& out_dir,
           int reps, double rate, std::size_t requests) {
  std::vector<Category> cats;
  for (const std::string& name : service::category_names()) {
    Category c;
    c.name = name;
    c.archive_text = core::read_text_file(archive_dir + "/" + name + ".json");
    c.archive = core::load_archive(c.archive_text);
    const auto setup = service::category_setup(name);
    const auto machine = service::machine_by_name(setup->default_machine);
    const auto live = core::run_pipeline(*machine, setup->benchmark,
                                         setup->signatures, setup->options);
    c.rounded_body = cli_body(live, true);
    c.plain_body = cli_body(live, false);
    require(service::render_result(live) == c.plain_body.substr(1),
            name + " render_result");
    core::write_text_file(out_dir + "/" + name + ".rounded.txt",
                          c.rounded_body);
    core::write_text_file(out_dir + "/" + name + ".plain.txt", c.plain_body);
    cats.push_back(std::move(c));
  }

  obs::Tracer& tracer = obs::Tracer::instance();
  Replay r;
  service::SharedCatalog catalog;
  for (const Category& c : cats) catalog.category(c.name);
  const std::set<std::string> cachesim = {"dcache", "icache", "gpu_dcache"};
  const auto pass = [&](const std::string& workload) {
    for (const Category& c : cats) {
      if (workload == "submit") {
        replay_submit(r, c, catalog);
      } else if ((workload == "cli_cachesim") == (cachesim.count(c.name) > 0)) {
        replay_live(r, c);
        replay_offline(r, c);
      }
    }
  };
  // Each pass runs once untraced and once traced; the ratio of the time
  // spent in the replayed operations is the tracer's overhead.
  for (const std::string workload : {"cli_cachesim", "cli_flops", "submit"}) {
    double off_ms = 0, on_ms = 0;
    for (int rep = 0; rep < reps; ++rep) {
      for (const bool on : {false, true}) {
        tracer.enable(on);
        r.busy_ms = 0;
        pass(workload);
        (on ? on_ms : off_ms) += r.busy_ms;
      }
    }
    r.sample("obs.trace_overhead_ratio." + workload, on_ms / off_ms);
  }
  // Machines no category defaults to still get a build time.
  for (const std::string& m : service::machine_names()) {
    for (int rep = 0; rep < reps; ++rep) {
      traced("pmu.machine_build", ++r.request,
             [&] { (void)service::machine_by_name(m); });
      r.sample("pmu.machine_build_ms." + m,
               span_ms(r.drain(), "pmu.machine_build"));
    }
  }
  replay_queue(r, cats, rate, requests);
  tracer.enable(false);

  core::write_text_file(
      out_dir + "/trace.json",
      obs::to_chrome_trace(r.spans, obs::Metrics::instance().snapshot()));
  write_self_time(out_dir + "/self_time.txt", r.spans);
  std::ostringstream json;
  json.precision(10);
  const char* sep = "{";
  for (const auto& [name, values] : r.samples) {
    json << sep << "\"" << name << "\":" << quantile(values, 0.5);
    sep = ",";
  }
  std::cout << json.str() << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() != 5) {
    std::cerr << "usage: perfbench_layers ARCHIVE_DIR OUT_DIR REPS RATE "
                 "REQUESTS\n";
    return 2;
  }
  try {
    return replay(args[0], args[1], std::stoi(args[2]), std::stod(args[3]),
                  std::stoul(args[4]));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: " << e.what() << "\n";
    return 1;
  }
}
