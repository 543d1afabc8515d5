// End-to-end integration on the REAL runtime substrate: a miniature native
// sweep (wall-clock measurements of real kernels under different
// configurations on this host) flows through the same dataset/analysis
// pipeline as the model study. Absolute numbers depend on the host; the
// assertions only cover pipeline integrity and invariants.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "analysis/speedup.hpp"
#include "core/study.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "sweep/harness.hpp"

namespace omptune {
namespace {

TEST(NativeIntegration, MiniSweepFlowsThroughThePipeline) {
  // Tiny problems, few configs, 2 repetitions: seconds on any host.
  sim::NativeRunner runner(/*native_scale=*/0.02, /*max_threads=*/3);
  sweep::SweepHarness harness(runner, /*repetitions=*/2);

  const arch::CpuArch& cpu = arch::architecture(arch::ArchId::Skylake);
  sweep::Dataset dataset;
  for (const char* app_name : {"cg", "nqueens"}) {
    const apps::Application& app = apps::find_application(app_name);
    sweep::StudySetting setting{&app, app.input_sizes().front(), 3};
    dataset.append(harness.run_setting(cpu, setting, 12));
  }

  ASSERT_EQ(dataset.size(), 24u);
  for (const auto& s : dataset.samples()) {
    EXPECT_GT(s.mean_runtime, 0.0);
    EXPECT_GT(s.speedup, 0.0);
    EXPECT_EQ(s.runtimes.size(), 2u);
    EXPECT_EQ(s.threads, 3);
  }
  // Default anchored per setting.
  std::size_t defaults = 0;
  for (const auto& s : dataset.samples()) defaults += s.is_default;
  EXPECT_EQ(defaults, 2u);  // one per setting

  // The analysis layer accepts native data unchanged.
  const auto bests = analysis::best_per_setting(store::StoreReader(dataset));
  ASSERT_EQ(bests.size(), 2u);
  for (const auto& b : bests) {
    EXPECT_GE(b.best_speedup, 1.0);  // the best is at least the default
  }

  // The dataset round-trips to CSV like the model-mode datasets.
  std::ostringstream os;
  dataset.to_csv().write(os);
  std::istringstream is(os.str());
  EXPECT_EQ(sweep::Dataset::from_csv(util::CsvTable::read(is)).size(),
            dataset.size());
}

TEST(NativeIntegration, ChecksumsValidateDuringNativeSweep) {
  sim::NativeRunner runner(0.02, 2);
  const arch::CpuArch& cpu = arch::architecture(arch::ArchId::Skylake);
  const apps::Application& app = apps::find_application("mg");
  const apps::InputSize input = app.input_sizes().front();
  const double reference = app.run_reference(input, 0.02);

  for (const rt::LibraryMode library :
       {rt::LibraryMode::Throughput, rt::LibraryMode::Turnaround}) {
    rt::RtConfig config = rt::RtConfig::defaults_for(cpu);
    config.num_threads = 2;
    config.library = library;
    runner.run(app, input, cpu, config, 0, 0, 0);
    EXPECT_DOUBLE_EQ(runner.last_checksum(), reference)
        << rt::to_string(library);
  }
}

TEST(NativeIntegration, StudyDriverAcceptsNativeRunner) {
  // The Study orchestration is runner-agnostic: a (very small) native study
  // produces the same artefact structure as the model study.
  sim::NativeRunner runner(0.015, 2);
  core::Study study(runner, core::StudyOptions{.repetitions = 2});
  const auto plan = sweep::StudyPlan::mini_plan(/*apps_per_arch=*/1,
                                                /*configs_per_setting=*/8);
  const core::StudyResult result = study.run(plan);
  EXPECT_EQ(result.dataset.size(), 3u * 8u);
  EXPECT_EQ(result.upshot.size(), 3u);
  EXPECT_FALSE(result.worst_trends.empty());
}

}  // namespace
}  // namespace omptune
