// A benchmark's descriptor (name, slots, normalizers, basis, threads) is
// cheap; its activities may need a cache simulation, which runs on first
// use of Benchmark::activities() only.  These tests hold the split to its
// promises:
//   * the descriptor every entry point gets from category_setup equals the
//     one seen after simulation, and matches what the simulation counted;
//   * offline entry points (archive analysis, JSON and packed SUBMITs
//     through a SharedCatalog, the signature table) never simulate;
//   * a live run simulates exactly once, and so do 8 threads racing to
//     first use of one shared catalog entry.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "core/parallel.hpp"
#include "obs/trace.hpp"
#include "pmu/signals.hpp"
#include "service/catalog.hpp"
#include "service/engine.hpp"

namespace catalyst {
namespace {

namespace sig = pmu::sig;

/// Traces everything run by `body` and returns how many cat.simulate spans
/// it recorded.
template <typename Body>
std::size_t simulations_in(Body&& body) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.enable(true);
  body();
  tracer.enable(false);
  std::size_t n = 0;
  for (const obs::SpanRecord& rec : tracer.buffer().snapshot()) {
    if (std::strcmp(rec.name, "cat.simulate") == 0) ++n;
  }
  tracer.reset();
  return n;
}

#if defined(CATALYST_OBS_DISABLED)
constexpr bool kTracing = false;
#else
constexpr bool kTracing = true;
#endif
#define SKIP_WITHOUT_TRACING() \
  if (!kTracing) GTEST_SKIP() << "spans are compiled out (CATALYST_OBS=OFF)"

class Descriptor : public ::testing::TestWithParam<const char*> {};

TEST_P(Descriptor, EqualsTheOneSeenAfterSimulation) {
  const std::string category = GetParam();
  const auto before = service::category_setup(category);
  auto after = service::category_setup(category);
  ASSERT_TRUE(before.has_value() && after.has_value());
  const cat::Benchmark& b = before->benchmark;
  const cat::Benchmark& a = after->benchmark;
  const cat::ActivityTable& table = a.activities();

  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.threads, b.threads);
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t s = 0; s < a.slots.size(); ++s) {
    EXPECT_EQ(a.slots[s].name, b.slots[s].name);
    EXPECT_EQ(a.slots[s].normalizer, b.slots[s].normalizer);
  }
  EXPECT_EQ(a.basis.labels, b.basis.labels);
  const auto ea = a.basis.e.data();
  const auto eb = b.basis.e.data();
  EXPECT_EQ(std::vector<double>(ea.begin(), ea.end()),
            std::vector<double>(eb.begin(), eb.end()));

  // The table has the descriptor's shape, and the cache categories'
  // normalizers equal the accesses their simulations counted.
  ASSERT_EQ(table.size(), b.threads);
  for (const auto& row : table) {
    ASSERT_EQ(row.size(), b.slots.size());
    for (std::size_t s = 0; s < row.size(); ++s) {
      double counted = b.slots[s].normalizer;
      if (category == "dcache") counted = row[s].at(sig::loads);
      if (category == "gpu_dcache") counted = row[s].at(sig::gpu_vmem);
      if (category == "icache") {
        counted = row[s].at(sig::l1i_hit) + row[s].at(sig::l1i_miss);
      }
      EXPECT_EQ(counted, b.slots[s].normalizer) << b.slots[s].name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Categories, Descriptor,
                         ::testing::Values("cpu_flops", "gpu_flops",
                                           "branch", "dcache", "icache",
                                           "gpu_dcache"));

/// A dcache archive, as `catalyst collect dcache` writes it.
const std::string& dcache_archive() {
  static const std::string archive = [] {
    const auto setup = service::category_setup("dcache");
    const auto machine = service::machine_by_name(setup->default_machine);
    const auto result = core::run_pipeline(*machine, setup->benchmark,
                                           setup->signatures, setup->options);
    return core::save_archive(
        core::make_archive(*machine, setup->benchmark, result));
  }();
  return archive;
}

TEST(Simulation, LiveDcacheRunSimulatesExactlyOnce) {
  SKIP_WITHOUT_TRACING();
  const auto setup = service::category_setup("dcache");
  const auto machine = service::machine_by_name(setup->default_machine);
  core::PipelineResult result;
  EXPECT_EQ(simulations_in([&] {
              result = core::run_pipeline(*machine, setup->benchmark,
                                          setup->signatures, setup->options);
            }),
            1u);
  // Traced, the simulation leads the stage table -- of the run that ran it
  // only: a second run over the same benchmark simulates nothing.
  ASSERT_FALSE(result.stage_timings.empty());
  EXPECT_EQ(result.stage_timings.front().name, "simulate");
  EXPECT_GT(result.stage_timings.front().wall_ns, 0);
  EXPECT_EQ(result.stage_timings[1].name, "collect");
  EXPECT_EQ(simulations_in([&] {
              result = core::run_pipeline(*machine, setup->benchmark,
                                          setup->signatures, setup->options);
            }),
            0u);
  ASSERT_FALSE(result.stage_timings.empty());
  EXPECT_EQ(result.stage_timings.front().name, "collect");
}

TEST(Simulation, OfflineEntryPointsNeverSimulate) {
  SKIP_WITHOUT_TRACING();
  const std::string& archive_text = dcache_archive();
  EXPECT_EQ(simulations_in([&] {
              const auto setup = service::category_setup("dcache");
              const auto result = core::analyze_archive(
                  core::load_archive(archive_text), setup->signatures,
                  setup->options);
              EXPECT_FALSE(result.metrics.empty());
            }),
            0u)
      << "analyze_archive";

  service::SharedCatalog catalog;
  const core::MeasurementArchive archive = core::load_archive(archive_text);
  service::wire::SubmitBody json;
  json.kind = service::wire::SubmitKind::json;
  json.category = "dcache";
  json.archive_json = archive_text;
  const service::wire::SubmitBody packed =
      service::packed_submit_from_archive(archive, "dcache");
  const service::wire::SubmitBody* const submits[] = {&json, &packed};
  for (const service::wire::SubmitBody* submit : submits) {
    EXPECT_EQ(simulations_in([&] {
                const auto outcome =
                    service::run_analysis(catalog, *submit, nullptr);
                EXPECT_TRUE(outcome.ok) << outcome.message;
              }),
              0u)
        << (submit == &json ? "JSON SUBMIT" : "packed SUBMIT");
  }

  // What `catalyst signatures <category>` runs.
  for (const std::string& category : service::category_names()) {
    EXPECT_EQ(simulations_in([&] {
                const auto setup = service::category_setup(category);
                EXPECT_FALSE(core::format_signature_table(
                                 "signatures: " + category,
                                 setup->benchmark.basis.labels,
                                 setup->signatures)
                                 .empty());
              }),
              0u)
        << "signatures " << category;
  }
}

TEST(Simulation, ConcurrentFirstUseOfASharedEntrySimulatesOnce) {
  SKIP_WITHOUT_TRACING();
  service::SharedCatalog catalog;
  const service::CategorySetup* entry = catalog.category("icache");
  ASSERT_NE(entry, nullptr);
  std::vector<const cat::ActivityTable*> seen(8, nullptr);
  EXPECT_EQ(simulations_in([&] {
              core::parallel_for(8, 8, [&](std::size_t t) {
                seen[t] = &catalog.category("icache")->benchmark.activities();
              });
            }),
            1u);
  for (const cat::ActivityTable* table : seen) {
    EXPECT_EQ(table, &entry->benchmark.activities());
  }
  // Copies share the result too.
  const cat::Benchmark copy = entry->benchmark;
  EXPECT_EQ(&copy.activities(), &entry->benchmark.activities());
}

TEST(Simulation, ValidateNeverSimulates) {
  SKIP_WITHOUT_TRACING();
  EXPECT_EQ(simulations_in([] {
              service::category_setup("gpu_dcache")->benchmark.validate();
            }),
            0u);
}

}  // namespace
}  // namespace catalyst
