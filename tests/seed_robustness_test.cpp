// Seed-robustness: the study's qualitative conclusions must not depend on
// the master seed (i.e. on which configurations the subsample draws or on
// the noise realization). Runs the reduced study under three different
// seeds and asserts the headline claims hold under each.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/study.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"

namespace omptune {
namespace {

core::StudyResult run_with_seed(std::uint64_t seed) {
  sim::ModelRunner runner;
  core::Study study(runner, core::StudyOptions{.repetitions = 3, .seed = seed});
  sweep::StudyPlan plan = sweep::StudyPlan::paper_plan();
  for (auto& arch_plan : plan.arch_plans) {
    for (auto& count : arch_plan.configs_per_setting) count = 150;
  }
  return study.run(plan);
}

class SeedRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedRobustness, HeadlineClaimsHoldUnderThisSeed) {
  const core::StudyResult result = run_with_seed(GetParam());

  // Medians ordered A64FX < Skylake < Milan; A64FX holds the global max.
  auto upshot_of = [&result](const std::string& arch) {
    return *std::find_if(result.upshot.begin(), result.upshot.end(),
                         [&arch](const auto& u) { return u.arch == arch; });
  };
  EXPECT_LT(upshot_of("a64fx").median_best, upshot_of("skylake").median_best);
  EXPECT_LT(upshot_of("skylake").median_best, upshot_of("milan").median_best);
  EXPECT_GT(upshot_of("a64fx").max_best, 3.0);

  // XSBench: Milan-only blowup.
  double milan_xs = 0.0, skylake_xs = 0.0;
  for (const auto& r : result.ranges_by_arch) {
    if (r.app == "xsbench" && r.arch == "milan") milan_xs = r.hi;
    if (r.app == "xsbench" && r.arch == "skylake") skylake_xs = r.hi;
  }
  EXPECT_GT(milan_xs, 1.8);
  EXPECT_LT(skylake_xs, 1.15);

  // NQueens: turnaround everywhere.
  const auto recs = analysis::recommend_for_app(
      store::StoreReader(result.dataset), "nqueens");
  EXPECT_TRUE(std::any_of(recs.begin(), recs.end(), [](const auto& rec) {
    return rec.arch == "all" && rec.variable == "KMP_LIBRARY" &&
           rec.value == "turnaround";
  }));

  // Worst trend: master binding.
  ASSERT_FALSE(result.worst_trends.empty());
  EXPECT_NE(result.worst_trends.front().condition.find("master"),
            std::string::npos);
  EXPECT_GT(result.worst_trends.front().lift, 3.0);

  // Influence: reduction/align least relevant per architecture.
  for (const auto& row : result.per_arch_influence.rows) {
    EXPECT_LT(result.per_arch_influence.at(row.group, "KMP_FORCE_REDUCTION"),
              result.per_arch_influence.at(row.group, "KMP_LIBRARY"))
        << row.group;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedRobustness,
                         ::testing::Values(0xDEADBEEFull, 12345ull,
                                           0xFEEDFACEull));

TEST(SeedRobustness, DifferentSeedsProduceDifferentSamplesSameShape) {
  const core::StudyResult a = run_with_seed(1);
  const core::StudyResult b = run_with_seed(2);
  // The subsamples genuinely differ...
  ASSERT_EQ(a.dataset.size(), b.dataset.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.dataset.size(); ++i) {
    differing += !(a.dataset.samples()[i].config == b.dataset.samples()[i].config);
  }
  EXPECT_GT(differing, a.dataset.size() / 4);
  // ...but the per-arch medians agree closely.
  for (std::size_t i = 0; i < a.upshot.size(); ++i) {
    EXPECT_NEAR(a.upshot[i].median_best, b.upshot[i].median_best, 0.15)
        << a.upshot[i].arch;
  }
}

}  // namespace
}  // namespace omptune
