// The headline integration test: run the FULL paper-scale study (Table II:
// 243,759 samples) in model mode and assert every qualitative claim of the
// paper's evaluation section. This is the executable form of EXPERIMENTS.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/study.hpp"
#include "core/tuner.hpp"
#include "sim/executor.hpp"
#include "stats/wilcoxon.hpp"
#include "store/reader.hpp"

namespace omptune {
namespace {

const core::StudyResult& full_study() {
  static const core::StudyResult result = [] {
    sim::ModelRunner runner;
    core::Study study(runner);
    return study.run_paper_study();
  }();
  return result;
}

double app_arch_best(const std::string& app, const std::string& arch) {
  for (const auto& r : full_study().ranges_by_arch) {
    if (r.app == app && r.arch == arch) return r.hi;
  }
  ADD_FAILURE() << "no range for " << app << "/" << arch;
  return 0.0;
}

TEST(TableII, DatasetSizesMatchExactly) {
  std::map<std::string, std::size_t> per_arch;
  std::map<std::string, std::set<std::string>> apps_per_arch;
  for (const auto& s : full_study().dataset.samples()) {
    ++per_arch[s.arch];
    apps_per_arch[s.arch].insert(s.app);
  }
  EXPECT_EQ(per_arch["a64fx"], 53822u);
  EXPECT_EQ(per_arch["milan"], 99707u);
  EXPECT_EQ(per_arch["skylake"], 90230u);
  EXPECT_EQ(apps_per_arch["a64fx"].size(), 15u);
  EXPECT_EQ(apps_per_arch["milan"].size(), 13u);
  EXPECT_EQ(apps_per_arch["skylake"].size(), 12u);
  EXPECT_EQ(full_study().dataset.size(), 243759u);
}

TEST(SectionV1, SpeedupPotentialAndMedians) {
  const auto& upshot = full_study().upshot;
  auto find = [&upshot](const std::string& arch) {
    return *std::find_if(upshot.begin(), upshot.end(),
                         [&arch](const auto& u) { return u.arch == arch; });
  };
  // Paper: A64FX max 4.85 / median 1.02; Milan max 2.6 / median 1.15;
  // Skylake max 3.47 / median 1.065. Allow the model +-20% on the extremes.
  EXPECT_NEAR(find("a64fx").max_best, 4.85, 4.85 * 0.2);
  EXPECT_NEAR(find("milan").max_best, 2.60, 2.60 * 0.2);
  EXPECT_NEAR(find("skylake").max_best, 3.47, 3.47 * 0.2);
  EXPECT_NEAR(find("a64fx").median_best, 1.02, 0.05);
  EXPECT_NEAR(find("skylake").median_best, 1.065, 0.05);
  EXPECT_NEAR(find("milan").median_best, 1.15, 0.25);
  // Ordering of the medians.
  EXPECT_LT(find("a64fx").median_best, find("skylake").median_best);
  EXPECT_LT(find("skylake").median_best, find("milan").median_best);
}

TEST(TableV, AlignmentConsistentXsbenchMilanOnly) {
  // XSBench: minimal on A64FX and Skylake, > 2x on Milan.
  EXPECT_LT(app_arch_best("xsbench", "a64fx"), 1.1);
  EXPECT_LT(app_arch_best("xsbench", "skylake"), 1.1);
  EXPECT_GT(app_arch_best("xsbench", "milan"), 2.0);
  // Alignment: consistent moderate potential everywhere (1.02 - 1.19).
  for (const std::string arch : {"a64fx", "milan", "skylake"}) {
    EXPECT_GT(app_arch_best("alignment", arch), 1.02) << arch;
    EXPECT_LT(app_arch_best("alignment", arch), 1.30) << arch;
  }
}

TEST(TableVI, PerApplicationRangesTrackThePaper) {
  struct Target {
    const char* app;
    double lo, hi;       // paper's range
    double tolerance;    // relative tolerance on the max
  };
  // Wider tolerance where the model is known to sit low/high (documented in
  // EXPERIMENTS.md); the *ordering* claims below are strict.
  const Target targets[] = {
      {"alignment", 1.022, 1.186, 0.10}, {"bt", 1.027, 1.185, 0.10},
      {"cg", 1.000, 1.857, 0.15},        {"ep", 1.000, 1.090, 0.05},
      {"ft", 1.010, 1.545, 0.15},        {"health", 1.282, 2.218, 0.15},
      {"lu", 1.020, 1.121, 0.10},        {"lulesh", 1.004, 1.062, 0.10},
      {"mg", 1.011, 2.167, 0.20},        {"nqueens", 2.342, 4.851, 0.15},
      {"rsbench", 1.004, 1.213, 0.10},   {"sort", 1.174, 1.180, 0.05},
      {"strassen", 1.023, 1.025, 0.05},  {"su3bench", 1.002, 2.279, 0.15},
      {"xsbench", 1.001, 2.602, 0.15},
  };
  const auto& ranges = full_study().ranges_by_app;
  for (const Target& t : targets) {
    const auto it = std::find_if(ranges.begin(), ranges.end(),
                                 [&t](const auto& r) { return r.app == t.app; });
    ASSERT_NE(it, ranges.end()) << t.app;
    EXPECT_NEAR(it->hi, t.hi, t.hi * t.tolerance) << t.app;
    EXPECT_GE(it->lo, 0.95) << t.app;
  }
  // Strict ordering claims: NQueens >> Health/MG/SU3/XS > mid pack > EP,
  // Strassen, LULESH.
  auto hi = [&ranges](const std::string& app) {
    return std::find_if(ranges.begin(), ranges.end(),
                        [&app](const auto& r) { return r.app == app; })->hi;
  };
  EXPECT_GT(hi("nqueens"), hi("health"));
  EXPECT_GT(hi("health"), hi("lu"));
  EXPECT_GT(hi("xsbench"), hi("rsbench"));
  EXPECT_GT(hi("su3bench"), hi("lulesh"));
  EXPECT_GT(hi("mg"), hi("ep"));
}

TEST(TableIII, WilcoxonConsistencyPerArchitecture) {
  // Rebuild the paper's repetition-pair test on the alignment/small batch:
  // consistent pairs on A64FX (high p), systematic drift on the X86
  // machines (low p).
  const auto& dataset = full_study().dataset;
  auto runtimes_of = [&dataset](const std::string& arch, int rep) {
    std::vector<double> out;
    for (const auto& s : dataset.samples()) {
      if (s.arch == arch && s.app == "alignment" && s.input == "small") {
        out.push_back(s.runtimes.at(static_cast<std::size_t>(rep)));
      }
    }
    return out;
  };
  for (const std::string arch : {"a64fx", "milan", "skylake"}) {
    const auto r0 = runtimes_of(arch, 0);
    const auto r1 = runtimes_of(arch, 1);
    const auto r2 = runtimes_of(arch, 2);
    ASSERT_GT(r0.size(), 100u) << arch;
    const auto p01 = stats::wilcoxon_signed_rank(r0, r1).p_value;
    const auto p12 = stats::wilcoxon_signed_rank(r1, r2).p_value;
    if (arch == "a64fx") {
      EXPECT_GT(p01, 0.05) << arch;  // consistent repetitions
      EXPECT_GT(p12, 0.05) << arch;
    } else {
      // Shared clusters: at least one pair shows a significant shift.
      EXPECT_LT(std::min(p01, p12), 0.01) << arch;
    }
  }
}

TEST(TableIV, RepetitionMeansAreSimilarWithinArch) {
  const auto& dataset = full_study().dataset;
  for (const std::string arch : {"a64fx", "milan", "skylake"}) {
    std::vector<double> mean_per_rep(4, 0.0);
    std::size_t count = 0;
    for (const auto& s : dataset.samples()) {
      if (s.arch != arch || s.app != "alignment" || s.input != "small") continue;
      for (int r = 0; r < 4; ++r) {
        mean_per_rep[static_cast<std::size_t>(r)] += s.runtimes.at(static_cast<std::size_t>(r));
      }
      ++count;
    }
    ASSERT_GT(count, 0u);
    for (auto& m : mean_per_rep) m /= static_cast<double>(count);
    // Means agree within 10% (Table IV: similar means/stddevs per arch).
    for (int r = 1; r < 4; ++r) {
      EXPECT_NEAR(mean_per_rep[static_cast<std::size_t>(r)], mean_per_rep[0],
                  0.1 * mean_per_rep[0])
          << arch;
    }
  }
}

TEST(FigTwo, BotsTaskAppsShowLowArchitectureReliance) {
  // Paper: "applications from BSC OMP Task Suite show very low reliance on
  // the architecture".
  const auto& map = full_study().per_app_influence;
  double bots_total = 0.0;
  int bots_count = 0;
  double npb_total = 0.0;
  int npb_count = 0;
  for (const std::string app : {"alignment", "health", "nqueens"}) {
    bots_total += map.at(app, "Architecture");
    ++bots_count;
  }
  for (const std::string app : {"bt", "cg", "ep", "ft", "lu"}) {
    npb_total += map.at(app, "Architecture");
    ++npb_count;
  }
  EXPECT_LT(bots_total / bots_count, npb_total / npb_count);
}

TEST(FigThree, VariableInfluenceOrderingPerArchitecture) {
  const auto& map = full_study().per_arch_influence;
  ASSERT_EQ(map.rows.size(), 3u);
  for (const auto& row : map.rows) {
    // The standardized ICV knobs and the wait-policy pair carry the signal;
    // KMP_FORCE_REDUCTION and KMP_ALIGN_ALLOC are the least relevant
    // (paper: "very low relevance ... when grouped by architecture").
    const double bind = map.at(row.group, "OMP_PROC_BIND");
    const double library = map.at(row.group, "KMP_LIBRARY");
    const double blocktime = map.at(row.group, "KMP_BLOCKTIME");
    const double reduction = map.at(row.group, "KMP_FORCE_REDUCTION");
    const double align = map.at(row.group, "KMP_ALIGN_ALLOC");
    EXPECT_GT(bind, reduction) << row.group;
    EXPECT_GT(bind, align) << row.group;
    EXPECT_GT(library, reduction) << row.group;
    EXPECT_GT(blocktime, reduction) << row.group;
    EXPECT_LT(reduction, 0.05) << row.group;
    EXPECT_LT(align, 0.08) << row.group;
  }
}

TEST(TableVII, NqueensTurnaroundEverywhereCgReductionOnSkylake) {
  const auto recs =
      analysis::recommend_for_app(
          store::StoreReader(full_study().dataset), "nqueens");
  const bool turnaround_everywhere = std::any_of(
      recs.begin(), recs.end(), [](const analysis::Recommendation& r) {
        return r.arch == "all" && r.variable == "KMP_LIBRARY" &&
               r.value == "turnaround";
      });
  EXPECT_TRUE(turnaround_everywhere);

  // CG on Skylake: forced tree/atomic reductions appear among the near-best
  // configurations more often than critical.
  const auto& dataset = full_study().dataset;
  std::map<std::string, int> reduction_in_best;
  double best = 0.0;
  for (const auto& s : dataset.samples()) {
    if (s.arch == "skylake" && s.app == "cg") best = std::max(best, s.speedup);
  }
  for (const auto& s : dataset.samples()) {
    if (s.arch != "skylake" || s.app != "cg") continue;
    if (s.speedup >= 0.97 * best) {
      ++reduction_in_best[rt::to_string(s.config.reduction)];
    }
  }
  EXPECT_GE(reduction_in_best["tree"] + reduction_in_best["atomic"] +
                reduction_in_best["unset"],
            reduction_in_best["critical"]);
}

TEST(SectionV4, WorstTrendIsMasterBindingAtScale) {
  const auto& trends = full_study().worst_trends;
  ASSERT_FALSE(trends.empty());
  EXPECT_NE(trends.front().condition.find("master"), std::string::npos);
  EXPECT_GT(trends.front().lift, 4.0);
  EXPECT_GT(trends.front().share_in_worst, 0.5);
}

TEST(Defaults, DefaultConfigurationPerformsWellOverall) {
  // Paper V.1: "the default performs very well across the board" — the
  // median sample is close to (or below) default performance.
  std::vector<double> speedups;
  for (const auto& s : full_study().dataset.samples()) {
    speedups.push_back(s.speedup);
  }
  std::nth_element(speedups.begin(), speedups.begin() + speedups.size() / 2,
                   speedups.end());
  EXPECT_LT(speedups[speedups.size() / 2], 1.05);
}

}  // namespace
}  // namespace omptune
