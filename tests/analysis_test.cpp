// Analysis pipeline tests on a reduced (but full-roster) model-mode study:
// grouping, influence maps, speedup ranges, recommendations, worst trends.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "analysis/influence.hpp"
#include "analysis/export.hpp"
#include "util/strings.hpp"
#include "analysis/marginals.hpp"
#include "analysis/model_comparison.hpp"
#include "analysis/recommend.hpp"
#include "analysis/speedup.hpp"
#include "scratch_dir.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "sweep/harness.hpp"

namespace omptune::analysis {
namespace {

/// Reduced study: the paper's settings roster with ~200 configurations per
/// setting. Built once per process.
const sweep::Dataset& study_dataset() {
  static const sweep::Dataset dataset = [] {
    sim::ModelRunner runner;
    sweep::SweepHarness harness(runner, /*repetitions=*/3);
    sweep::StudyPlan plan = sweep::StudyPlan::paper_plan();
    for (auto& arch_plan : plan.arch_plans) {
      for (auto& count : arch_plan.configs_per_setting) count = 200;
    }
    return harness.run_study(plan);
  }();
  return dataset;
}

/// The reduced study read through its in-memory .omps image.
const store::StoreReader& study_store() {
  static const store::StoreReader reader(study_dataset());
  return reader;
}

TEST(BestPerSetting, OneEntryPerSettingWithBestAtLeastDefault) {
  const auto bests = best_per_setting(study_store());
  // A64FX 49 + Milan 43 + Skylake 40 settings.
  EXPECT_EQ(bests.size(), 132u);
  for (const SettingBest& b : bests) {
    EXPECT_GE(b.best_speedup, 1.0) << b.arch << "/" << b.app;
  }
}

TEST(SpeedupRanges, TableFiveShape) {
  const auto ranges = speedup_ranges_by_arch(best_per_setting(study_store()));
  auto find = [&ranges](const std::string& app, const std::string& arch) {
    const auto it = std::find_if(ranges.begin(), ranges.end(),
                                 [&](const ArchAppRange& r) {
                                   return r.app == app && r.arch == arch;
                                 });
    EXPECT_NE(it, ranges.end()) << app << "/" << arch;
    return *it;
  };
  // Table V: XSBench improves only marginally on A64FX and Skylake but
  // strongly on Milan.
  EXPECT_LT(find("xsbench", "a64fx").hi, 1.15);
  EXPECT_LT(find("xsbench", "skylake").hi, 1.15);
  EXPECT_GT(find("xsbench", "milan").hi, 1.8);
  // Alignment shows consistent moderate potential everywhere.
  for (const std::string arch : {"a64fx", "milan", "skylake"}) {
    const auto r = find("alignment", arch);
    EXPECT_GT(r.hi, 1.01) << arch;
    EXPECT_LT(r.hi, 1.35) << arch;
  }
  // Ranges are well-formed.
  for (const auto& r : ranges) {
    EXPECT_LE(r.lo, r.hi);
    EXPECT_GE(r.lo, 0.9);
  }
}

TEST(SpeedupRanges, TableSixShape) {
  const auto ranges = speedup_ranges_by_app(best_per_setting(study_store()));
  EXPECT_EQ(ranges.size(), 15u);
  auto find = [&ranges](const std::string& app) {
    const auto it = std::find_if(ranges.begin(), ranges.end(),
                                 [&app](const AppRange& r) { return r.app == app; });
    EXPECT_NE(it, ranges.end()) << app;
    return *it;
  };
  // NQueens tops Table VI; EP, Strassen and LULESH sit at the bottom.
  EXPECT_GT(find("nqueens").hi, 2.0);
  EXPECT_LT(find("ep").hi, 1.15);
  EXPECT_LT(find("strassen").hi, 1.1);
  EXPECT_LT(find("lulesh").hi, 1.2);
  // Every application shows at least some potential (paper V.1).
  for (const auto& r : ranges) EXPECT_GE(r.hi, 1.0);
  // Apps sorted alphabetically, as in Table VI.
  EXPECT_TRUE(std::is_sorted(ranges.begin(), ranges.end(),
                             [](const AppRange& a, const AppRange& b) {
                               return a.app < b.app;
                             }));
}

TEST(BestPerPair, FirstEntryKeepsATieAndAStrictlyGreaterOneReplacesIt) {
  auto entry = [](const std::string& arch, const std::string& app,
                  int threads, double speedup) {
    SettingBest best;
    best.arch = arch;
    best.app = app;
    best.threads = threads;
    best.best_speedup = speedup;
    return best;
  };
  const std::vector<SettingBest> bests = {
      entry("milan", "cg", 1, 1.5), entry("milan", "cg", 2, 1.5),
      entry("a64fx", "cg", 1, 1.2), entry("milan", "ep", 1, 1.1),
      entry("milan", "ep", 2, 1.3), entry("a64fx", "cg", 2, 1.1)};
  const PairBests pairs = best_per_pair(bests);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs.at({"cg", "milan"}).threads, 1);  // a tie keeps the first
  EXPECT_EQ(pairs.at({"ep", "milan"}).threads, 2);  // strictly greater wins
  EXPECT_EQ(pairs.at({"cg", "a64fx"}).threads, 1);
  EXPECT_DOUBLE_EQ(pairs.at({"cg", "a64fx"}).best_speedup, 1.2);

  const std::string arch = "a64fx";
  const PairBests one_arch = best_per_pair(bests, &arch);
  ASSERT_EQ(one_arch.size(), 1u);
  EXPECT_EQ(one_arch.begin()->first, std::make_pair(std::string("cg"), arch));
}

TEST(Upshot, ArchitectureMediansFollowThePaperOrdering) {
  const auto upshot = upshot_by_arch(best_per_setting(study_store()));
  ASSERT_EQ(upshot.size(), 3u);
  auto find = [&upshot](const std::string& arch) {
    return *std::find_if(upshot.begin(), upshot.end(),
                         [&arch](const ArchUpshot& u) { return u.arch == arch; });
  };
  // Paper V.1: medians 1.02 (A64FX) < 1.065 (Skylake) < 1.15 (Milan);
  // A64FX carries the global maximum (NQueens, 4.85x).
  EXPECT_LT(find("a64fx").median_best, find("skylake").median_best);
  EXPECT_LT(find("skylake").median_best, find("milan").median_best);
  EXPECT_GT(find("a64fx").max_best, find("milan").max_best);
  EXPECT_GT(find("a64fx").max_best, 3.0);
  for (const auto& u : upshot) {
    EXPECT_GE(u.min_best, 0.99);
    EXPECT_LE(u.min_best, u.median_best);
    EXPECT_LE(u.median_best, u.max_best);
  }
}

TEST(Influence, GroupingsProduceExpectedRows) {
  const auto per_app =
      influence_map(study_dataset(), Grouping::PerApplication);
  const auto per_arch =
      influence_map(study_dataset(), Grouping::PerArchitecture);
  EXPECT_EQ(per_arch.rows.size(), 3u);
  EXPECT_LE(per_app.rows.size(), 15u);
  EXPECT_GE(per_app.rows.size(), 12u);
  // Column sets per grouping.
  EXPECT_NE(std::find(per_app.feature_names.begin(), per_app.feature_names.end(),
                      "Architecture"),
            per_app.feature_names.end());
  EXPECT_NE(std::find(per_arch.feature_names.begin(), per_arch.feature_names.end(),
                      "Application"),
            per_arch.feature_names.end());
  for (const auto& row : per_app.rows) {
    double sum = 0;
    for (const double v : row.influence) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9) << row.group;
    EXPECT_GT(row.model_accuracy, 0.5) << row.group;
  }
}

TEST(Influence, ReductionAndAlignAreLeastInfluentialPerArch) {
  // Fig 3's bottom line: KMP_FORCE_REDUCTION and KMP_ALIGN_ALLOC matter
  // least when grouping by architecture.
  const auto map = influence_map(study_dataset(), Grouping::PerArchitecture);
  for (const auto& row : map.rows) {
    const double reduction = map.at(row.group, "KMP_FORCE_REDUCTION");
    const double align = map.at(row.group, "KMP_ALIGN_ALLOC");
    const double bind = map.at(row.group, "OMP_PROC_BIND");
    const double library = map.at(row.group, "KMP_LIBRARY");
    EXPECT_LT(reduction, bind) << row.group;
    EXPECT_LT(reduction, library) << row.group;
    EXPECT_LT(align, library) << row.group;
  }
}

TEST(Influence, SortAndStrassenShowNoArchitectureReliance) {
  // Paper note under Fig 2: Sort and Strassen ran only on A64FX, so their
  // Architecture column carries no signal.
  const auto map = influence_map(study_dataset(), Grouping::PerApplication);
  for (const std::string app : {"sort", "strassen"}) {
    EXPECT_LT(map.at(app, "Architecture"), 0.01) << app;
  }
}

TEST(Influence, PerArchAppGroupingHasPairRows) {
  const auto map =
      influence_map(study_dataset(), Grouping::PerArchApplication);
  // 40 + 43 app-arch... pairs exist per arch plan; at least the A64FX roster.
  EXPECT_GE(map.rows.size(), 30u);
  for (const auto& row : map.rows) {
    EXPECT_NE(row.group.find('/'), std::string::npos);
  }
}

TEST(Influence, AtThrowsOnUnknownKeys) {
  const auto map = influence_map(study_dataset(), Grouping::PerArchitecture);
  EXPECT_THROW(map.at("milan", "NOT_A_FEATURE"), std::invalid_argument);
  EXPECT_THROW(map.at("power9", "KMP_LIBRARY"), std::invalid_argument);
}

TEST(Recommendations, NqueensTurnaroundOnEveryArchitecture) {
  // Table VII's headline row.
  const auto recs = recommend_for_app(study_store(), "nqueens");
  bool found_all_scope = false;
  for (const auto& rec : recs) {
    if (rec.arch == "all" && rec.variable == "KMP_LIBRARY" &&
        rec.value == "turnaround") {
      found_all_scope = true;
      EXPECT_GT(rec.share_in_best, 0.9);
    }
  }
  EXPECT_TRUE(found_all_scope);
}

TEST(Recommendations, EmptyForUnknownApp) {
  EXPECT_TRUE(recommend_for_app(study_store(), "doesnotexist").empty());
}

TEST(WorstTrends, MasterBindingDominatesTheWorstDecile) {
  const auto trends = worst_trends(study_dataset());
  ASSERT_FALSE(trends.empty());
  // The top trend is master binding with large thread counts (paper V.4).
  EXPECT_NE(trends.front().condition.find("master"), std::string::npos);
  EXPECT_GT(trends.front().lift, 3.0);
  // Spread binding is under-represented among the worst.
  for (const auto& t : trends) {
    if (t.condition.find("spread") != std::string::npos) {
      EXPECT_LT(t.lift, 0.5);
    }
  }
}

TEST(ModelComparison, NonLinearModelsMatchOrBeatLogistic) {
  // The paper's future-work hypothesis: non-linear models fit this data at
  // least as well as the interpretable linear surrogate.
  ml::ForestOptions forest;
  forest.num_trees = 12;
  const auto rows = compare_models(study_dataset(), 1.01, forest);
  ASSERT_EQ(rows.size(), 3u);  // one per architecture
  for (const auto& row : rows) {
    EXPECT_GT(row.samples, 1000u) << row.group;
    EXPECT_GE(row.tree_accuracy, row.logistic_accuracy - 0.02) << row.group;
    EXPECT_GE(row.forest_accuracy, row.logistic_accuracy - 0.02) << row.group;
    EXPECT_GT(row.forest_oob_accuracy, 0.5) << row.group;
    EXPECT_LE(row.forest_oob_accuracy, row.forest_accuracy + 0.05) << row.group;
  }
}

TEST(Transfer, LeaveOneAppOutCoversTheRoster) {
  ml::ForestOptions forest;
  forest.num_trees = 8;
  const auto results = leave_one_app_out(study_dataset(), 1.01, forest);
  // 15 + 13 + 12 (arch, app) pairs, minus degenerate training slices.
  EXPECT_GE(results.size(), 35u);
  for (const auto& r : results) {
    EXPECT_GT(r.test_samples, 0u);
    EXPECT_GE(r.forest_accuracy, 0.0);
    EXPECT_LE(r.forest_accuracy, 1.0);
    EXPECT_GE(r.majority_baseline, 0.5);
  }
}

TEST(Transfer, SomePairsTransferSomeDoNot) {
  // The paper: "there is no guarantee this knowledge can be transferred to
  // new unseen applications" — transfer beats the majority baseline for
  // some held-out apps but not all.
  ml::ForestOptions forest;
  forest.num_trees = 8;
  const auto results = leave_one_app_out(study_dataset(), 1.01, forest);
  int beats = 0, loses = 0;
  for (const auto& r : results) {
    if (r.forest_accuracy > r.majority_baseline + 0.02) ++beats;
    if (r.forest_accuracy < r.majority_baseline - 0.02) ++loses;
  }
  EXPECT_GT(beats, 0);
  EXPECT_GT(loses, 0);
}

TEST(Marginals, CoverEveryVariableValuePerArch) {
  const auto marginals = value_marginals(study_store());
  // Each arch has 7 variables; value counts per variable: places 4,
  // bind 6, schedule 4, library 2, blocktime 3, reduction 4, align (4 or 2).
  std::map<std::string, std::set<std::string>> values_per_variable;
  for (const auto& row : marginals) {
    if (row.arch != "milan") continue;
    values_per_variable[row.variable].insert(row.value);
    EXPECT_GT(row.samples, 0u);
    EXPECT_GT(row.median_speedup, 0.001);  // master binding can be ~0.02x
    EXPECT_GE(row.p95_speedup, row.median_speedup);
    EXPECT_GE(row.optimal_share, 0.0);
    EXPECT_LE(row.optimal_share, 1.0);
  }
  EXPECT_EQ(values_per_variable["OMP_PLACES"].size(), 4u);
  EXPECT_EQ(values_per_variable["OMP_PROC_BIND"].size(), 6u);
  EXPECT_EQ(values_per_variable["KMP_LIBRARY"].size(), 2u);
  EXPECT_EQ(values_per_variable["KMP_ALIGN_ALLOC"].size(), 4u);
}

TEST(Marginals, MasterBindingHasTheWorstMedian) {
  const auto marginals = value_marginals(study_store());
  for (const char* arch : {"a64fx", "milan", "skylake"}) {
    double master_median = 0.0, spread_median = 0.0;
    for (const auto& row : marginals) {
      if (row.arch != arch || row.variable != "OMP_PROC_BIND") continue;
      if (row.value == "master") master_median = row.median_speedup;
      if (row.value == "spread") spread_median = row.median_speedup;
    }
    EXPECT_LT(master_median, spread_median) << arch;
    EXPECT_LT(master_median, 0.9) << arch;  // master is catastrophic
  }
}

TEST(Marginals, PooledRowsUseAllScope) {
  const auto pooled = value_marginals(study_store(), /*per_arch=*/false);
  for (const auto& row : pooled) EXPECT_EQ(row.arch, "all");
  const auto best = best_value_of(pooled, "all", "KMP_LIBRARY");
  EXPECT_EQ(best.variable, "KMP_LIBRARY");
  EXPECT_THROW(best_value_of(pooled, "milan", "KMP_LIBRARY"),
               std::invalid_argument);
}

TEST(Export, ViolinFigureWritesCsvAndScript) {
  const ScratchDir dir("export_violin");
  const auto written =
      export_violin_figure(study_dataset(), "health", dir.path(), 64);
  ASSERT_GE(written.size(), 4u);  // >= 3 groups + the gnuplot script
  EXPECT_NE(written.back().find("_violin.gp"), std::string::npos);

  // CSVs parse back, densities are non-negative, grids ascend.
  const auto table = util::CsvTable::read_file(written.front());
  ASSERT_GT(table.num_rows(), 10u);
  double prev = -1e300;
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    const double value = table.cell_as_double(i, "value");
    EXPECT_GT(value, prev);
    prev = value;
    EXPECT_GE(table.cell_as_double(i, "density"), 0.0);
  }
  EXPECT_THROW(export_violin_figure(study_dataset(), "not_an_app", dir.path()),
               std::invalid_argument);
}

TEST(Export, HeatmapFigureRoundTrips) {
  const ScratchDir dir("export_heat");
  const auto map = influence_map(study_dataset(), Grouping::PerArchitecture);
  const auto written = export_heatmap_figure(map, "fig3", dir.path());
  ASSERT_EQ(written.size(), 2u);

  const auto table = util::CsvTable::read_file(written.front());
  EXPECT_EQ(table.num_rows(), map.rows.size());
  EXPECT_EQ(table.num_cols(), map.feature_names.size() + 1);
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 1; c < table.num_cols(); ++c) {
      sum += util::parse_double(table.row(r)[c]).value();
    }
    EXPECT_NEAR(sum, 1.0, 1e-3);
  }
}

}  // namespace
}  // namespace omptune::analysis
