// One answer through every entry point: for each category on its default
// machine, run_pipeline, a default run_campaign, a checkpointed campaign and
// its full resume, and collect -> save_archive -> load_archive ->
// analyze_archive must agree on the measurements and on the report bytes,
// and every live path must write the same archive bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/core.hpp"
#include "service/catalog.hpp"

namespace catalyst {
namespace {

namespace fs = std::filesystem;

/// The report body the CLI prints after its header line.
std::string report_body(const core::PipelineResult& result) {
  return core::format_selected_events(result) +
         core::format_metric_table("metrics", result.metrics, true) +
         core::format_metric_table("metrics", result.metrics, false);
}

class EntryEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(EntryEquivalence, EveryEntryPointGivesTheSameAnswer) {
  const std::string category = GetParam();
  const auto setup = service::category_setup(category);
  ASSERT_TRUE(setup.has_value());
  const auto machine = service::machine_by_name(setup->default_machine);
  ASSERT_TRUE(machine.has_value());
  const auto archive_bytes = [&](const core::PipelineResult& result) {
    return core::save_archive(
        core::make_archive(*machine, setup->benchmark, result));
  };
  const auto run = [&](const core::CampaignOptions& options) {
    return core::run_campaign(*machine, setup->benchmark, setup->signatures,
                              options);
  };

  const core::PipelineResult pipeline = core::run_pipeline(
      *machine, setup->benchmark, setup->signatures, setup->options);

  core::CampaignOptions options;
  options.pipeline = setup->options;
  const core::CampaignResult campaign = run(options);

  const fs::path dir =
      fs::path(::testing::TempDir()) / ("entry_equivalence_" + category);
  fs::remove_all(dir);
  options.checkpoint.directory = dir.string();
  const core::CampaignResult checkpointed = run(options);
  EXPECT_EQ(checkpointed.batches_total, setup->options.repetitions);
  EXPECT_EQ(checkpointed.batches_resumed, 0u);
  options.checkpoint.resume = true;
  const core::CampaignResult resumed = run(options);
  EXPECT_EQ(resumed.batches_resumed, resumed.batches_total);
  fs::remove_all(dir);

  const std::string archive = archive_bytes(pipeline);
  const core::PipelineResult offline = core::analyze_archive(
      core::load_archive(archive), setup->signatures, setup->options);

  const std::string body = report_body(pipeline);
  for (const auto& [entry, result] :
       {std::pair<const char*, const core::PipelineResult*>{
            "run_campaign", &campaign.result},
        {"checkpointed", &checkpointed.result},
        {"resumed", &resumed.result},
        {"archive", &offline}}) {
    SCOPED_TRACE(entry);
    EXPECT_EQ(result->all_event_names, pipeline.all_event_names);
    EXPECT_EQ(result->measurements, pipeline.measurements);
    EXPECT_EQ(report_body(*result), body);
  }
  // A clean live run carries no collection report, so every live path
  // writes the same v1 archive.
  EXPECT_NE(archive.find("catalyst-measurements-v1"), std::string::npos);
  EXPECT_EQ(archive_bytes(campaign.result), archive);
  EXPECT_EQ(archive_bytes(checkpointed.result), archive);
  EXPECT_EQ(archive_bytes(resumed.result), archive);
}

INSTANTIATE_TEST_SUITE_P(Categories, EntryEquivalence,
                         ::testing::Values("cpu_flops", "gpu_flops", "branch",
                                           "dcache", "icache", "gpu_dcache"));

}  // namespace
}  // namespace catalyst
