// Tuner and study-orchestration tests: knowledge-based recommendations,
// search strategies (exhaustive / random / influence-ordered hill climb),
// and the end-to-end Study driver.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/study.hpp"
#include "core/thread_advisor.hpp"
#include "core/tuner.hpp"
#include "sim/executor.hpp"
#include "sweep/harness.hpp"

namespace omptune::core {
namespace {

using arch::ArchId;
using arch::architecture;

const StudyResult& reduced_study() {
  static const StudyResult result = [] {
    sim::ModelRunner runner;
    Study study(runner, StudyOptions{.repetitions = 3});
    sweep::StudyPlan plan = sweep::StudyPlan::paper_plan();
    for (auto& arch_plan : plan.arch_plans) {
      for (auto& count : arch_plan.configs_per_setting) count = 150;
    }
    return study.run(plan);
  }();
  return result;
}

TEST(Study, ProducesAllArtefacts) {
  const StudyResult& result = reduced_study();
  EXPECT_EQ(result.dataset.size(), 132u * 150u);
  EXPECT_EQ(result.upshot.size(), 3u);
  EXPECT_FALSE(result.ranges_by_arch.empty());
  EXPECT_EQ(result.ranges_by_app.size(), 15u);
  EXPECT_EQ(result.per_arch_influence.rows.size(), 3u);
  EXPECT_FALSE(result.per_app_influence.rows.empty());
  EXPECT_FALSE(result.per_arch_app_influence.rows.empty());
  EXPECT_FALSE(result.worst_trends.empty());
}

TEST(Study, AnalyzeIsIdempotentOnTheSameDataset) {
  sim::ModelRunner runner;
  Study study(runner);
  const StudyResult again = study.analyze(reduced_study().dataset);
  ASSERT_EQ(again.upshot.size(), reduced_study().upshot.size());
  for (std::size_t i = 0; i < again.upshot.size(); ++i) {
    EXPECT_DOUBLE_EQ(again.upshot[i].median_best,
                     reduced_study().upshot[i].median_best);
  }
}

TEST(KnowledgeBase, VariablePriorityPutsHighImpactVariablesFirst) {
  const KnowledgeBase kb(reduced_study().dataset);
  const auto priority = kb.variable_priority("nqueens", "a64fx");
  ASSERT_FALSE(priority.empty());
  // For NQueens the library mode dominates everything else.
  EXPECT_EQ(priority.front(), "KMP_LIBRARY");
  // The low-impact variables end up at the back.
  const auto position = [&priority](const std::string& name) {
    return std::find(priority.begin(), priority.end(), name) - priority.begin();
  };
  EXPECT_GT(position("KMP_FORCE_REDUCTION"), position("KMP_LIBRARY"));
}

TEST(KnowledgeBase, FallsBackForUnknownPairs) {
  const KnowledgeBase kb(reduced_study().dataset);
  // Unknown app on a known arch: falls back to the arch ordering; unknown
  // arch falls back to the paper's Fig-3 ordering.
  EXPECT_FALSE(kb.variable_priority("new_app", "milan").empty());
  const auto fallback = kb.variable_priority("new_app", "power10");
  ASSERT_FALSE(fallback.empty());
  EXPECT_EQ(fallback.front(), "OMP_NUM_THREADS");
}

TEST(KnowledgeBase, BestKnownConfigBeatsDefault) {
  const KnowledgeBase kb(reduced_study().dataset);
  EXPECT_GT(kb.best_known_speedup("xsbench", "milan"), 1.5);
  const rt::RtConfig best = kb.best_known_config("nqueens", "skylake");
  EXPECT_EQ(best.library, rt::LibraryMode::Turnaround);
  EXPECT_THROW(kb.best_known_config("sort", "milan"), std::invalid_argument);
  EXPECT_THROW(kb.best_known_speedup("nope", "milan"), std::invalid_argument);
}

sweep::Dataset mini_dataset() {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 2, 3);
  return harness.run_study(sweep::StudyPlan::mini_plan(2, 8));
}

TEST(KnowledgeBase, OutlivesTheDatasetItWasBuiltFrom) {
  // The knowledge base keeps a best-config table, not the samples: built
  // from a temporary, it must still answer (run under ASan in CI).
  const sweep::Dataset reference = mini_dataset();
  const sweep::Sample& first = reference.samples().front();
  const KnowledgeBase kb(mini_dataset());
  const KnowledgeBase kept(reference);
  EXPECT_EQ(kb.best_known_config(first.app, first.arch),
            kept.best_known_config(first.app, first.arch));
  EXPECT_EQ(kb.best_known_speedup(first.app, first.arch),
            kept.best_known_speedup(first.app, first.arch));
  EXPECT_GE(kb.best_known_speedup(first.app, first.arch), 1.0);
}

TEST(KnowledgeBase, PairWithOnlyQuarantinedRowsHasNoBestConfig) {
  std::vector<sweep::Sample> rows = mini_dataset().samples();
  const std::string app = rows.front().app;
  const std::string arch = rows.front().arch;
  std::size_t quarantined = 0;
  for (sweep::Sample& s : rows) {
    if (s.app != app || s.arch != arch) continue;
    s.status = sweep::SampleStatus::Quarantined;
    s.error = "injected";
    s.speedup = 0.0;
    ++quarantined;
  }
  ASSERT_LT(quarantined, rows.size()) << "other pairs must keep their rows";
  const KnowledgeBase kb{sweep::Dataset(std::move(rows))};
  EXPECT_THROW(kb.best_known_config(app, arch), std::invalid_argument);
  EXPECT_THROW(kb.best_known_speedup(app, arch), std::invalid_argument);
}

TEST(Tuner, ExhaustiveFindsTheGroundTruthOptimum) {
  sim::ModelRunner runner;
  const auto& cpu = architecture(ArchId::Milan);
  const auto& app = apps::find_application("xsbench");
  Tuner tuner(runner, app, app.default_input(), cpu);
  // Shrink the space for the exhaustive pass (keep it test-sized).
  sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);
  space.reductions = {rt::ReductionMethod::Default};
  space.aligns = {64};
  const auto result = tuner.exhaustive(space, cpu.cores);
  EXPECT_GT(result.speedup, 1.5);
  EXPECT_EQ(result.evaluations, space.size() + 1);
  // XSBench's optimum binds its threads.
  EXPECT_NE(result.best_config.effective_bind(), arch::BindKind::False_);
}

TEST(Tuner, HillClimbApproachesExhaustiveWithFarFewerEvaluations) {
  sim::ModelRunner runner_a, runner_b;
  const auto& cpu = architecture(ArchId::Milan);
  const auto& app = apps::find_application("xsbench");
  const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);

  Tuner exhaustive_tuner(runner_a, app, app.default_input(), cpu);
  const auto truth = exhaustive_tuner.exhaustive(space, cpu.cores);

  const KnowledgeBase kb(reduced_study().dataset);
  Tuner climber(runner_b, app, app.default_input(), cpu);
  const auto climbed =
      climber.hill_climb(space, cpu.cores, kb.variable_priority("xsbench", "milan"));

  EXPECT_LT(climbed.evaluations, space.size() / 100);
  EXPECT_GT(climbed.speedup, 0.8 * truth.speedup);
}

TEST(Tuner, RandomSearchImprovesWithBudget) {
  sim::ModelRunner runner;
  const auto& cpu = architecture(ArchId::Skylake);
  const auto& app = apps::find_application("nqueens");
  const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);
  Tuner tuner(runner, app, app.input_sizes().front(), cpu);
  const auto small = tuner.random_search(space, cpu.cores, 10);
  const auto large = tuner.random_search(space, cpu.cores, 400);
  EXPECT_GE(large.speedup, small.speedup);
  EXPECT_GT(large.speedup, 1.5);  // turnaround configs are half the space
  EXPECT_EQ(small.evaluations, 10u);
}

TEST(Tuner, HillClimbNeverReturnsWorseThanDefault) {
  sim::ModelRunner runner;
  for (const char* app_name : {"ep", "strassen", "lulesh"}) {
    const auto& cpu = architecture(ArchId::A64FX);
    const auto& app = apps::find_application(app_name);
    const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);
    Tuner tuner(runner, app, app.default_input(), cpu);
    const auto result = tuner.hill_climb(
        space, cpu.cores,
        {"KMP_LIBRARY", "OMP_PROC_BIND", "OMP_PLACES", "OMP_SCHEDULE",
         "KMP_BLOCKTIME", "KMP_FORCE_REDUCTION", "KMP_ALIGN_ALLOC"});
    EXPECT_GE(result.speedup, 1.0 - 1e-9) << app_name;
  }
}

TEST(Tuner, UnknownVariableNamesAreIgnored) {
  sim::ModelRunner runner;
  const auto& cpu = architecture(ArchId::Skylake);
  const auto& app = apps::find_application("cg");
  const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);
  Tuner tuner(runner, app, app.default_input(), cpu);
  const auto result = tuner.hill_climb(space, cpu.cores, {"NOT_A_VARIABLE"});
  EXPECT_EQ(result.evaluations, 1u);  // only the default was measured
  EXPECT_DOUBLE_EQ(result.speedup, 1.0);
}

TEST(Tuner, RestartedHillClimbIsAtLeastAsGoodAsOnePass) {
  sim::ModelRunner runner_a, runner_b;
  const auto& cpu = architecture(ArchId::Milan);
  const auto& app = apps::find_application("cg");
  const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);

  Tuner single(runner_a, app, app.default_input(), cpu);
  const auto one = single.hill_climb(
      space, cpu.cores,
      {"KMP_ALIGN_ALLOC", "KMP_FORCE_REDUCTION", "KMP_BLOCKTIME",
       "KMP_LIBRARY", "OMP_SCHEDULE", "OMP_PLACES", "OMP_PROC_BIND"});

  Tuner restarted(runner_b, app, app.default_input(), cpu);
  const auto multi = restarted.hill_climb_restarts(space, cpu.cores, 4);
  EXPECT_GE(multi.speedup, one.speedup - 0.05);
  EXPECT_GT(multi.evaluations, one.evaluations);
  EXPECT_THROW(restarted.hill_climb_restarts(space, cpu.cores, 0),
               std::invalid_argument);
}

TEST(Tuner, SimulatedAnnealingFindsGoodConfigurations) {
  sim::ModelRunner runner;
  const auto& cpu = architecture(ArchId::Milan);
  const auto& app = apps::find_application("xsbench");
  const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);
  Tuner tuner(runner, app, app.default_input(), cpu);
  const auto result = tuner.simulated_annealing(space, cpu.cores, 200);
  EXPECT_EQ(result.evaluations, 201u);
  EXPECT_GT(result.speedup, 1.5);  // ground truth is ~2.4
  EXPECT_THROW(tuner.simulated_annealing(space, cpu.cores, 0),
               std::invalid_argument);
}

TEST(Tuner, AnnealingBestNeverWorseThanDefault) {
  sim::ModelRunner runner;
  const auto& cpu = architecture(ArchId::A64FX);
  const auto& app = apps::find_application("ep");
  const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);
  Tuner tuner(runner, app, app.default_input(), cpu);
  const auto result = tuner.simulated_annealing(space, cpu.cores, 60);
  EXPECT_GE(result.speedup, 1.0 - 1e-9);
}

TEST(ThreadAdvisor, MemoryBoundAppsSaturateBelowTheCoreCount) {
  sim::PerfModel model;
  const auto& xs = apps::find_application("xsbench");
  const auto& milan = architecture(ArchId::Milan);
  const auto advice = advise_threads(model, xs, xs.default_input(), milan,
                                     rt::RtConfig::defaults_for(milan));
  // Bandwidth saturation: the fastest team is well below 96 cores.
  EXPECT_LT(advice.fastest_threads, 96);
  EXPECT_LE(advice.recommended_threads, advice.fastest_threads);
  // The curve ends slower than its minimum (contention inversion).
  EXPECT_GT(advice.curve.back().seconds,
            advice.curve[advice.curve.size() - 3].seconds * 0.999);
}

TEST(ThreadAdvisor, ComputeBoundAppsUseTheWholeMachine) {
  sim::PerfModel model;
  const auto& ep = apps::find_application("ep");
  const auto& milan = architecture(ArchId::Milan);
  const auto advice = advise_threads(model, ep, ep.default_input(), milan,
                                     rt::RtConfig::defaults_for(milan));
  EXPECT_EQ(advice.fastest_threads, 96);
}

TEST(ThreadAdvisor, CurveIsWellFormed) {
  sim::PerfModel model;
  const auto& app = apps::find_application("lu");
  const auto& cpu = architecture(ArchId::Skylake);
  const auto advice = advise_threads(model, app, app.default_input(), cpu,
                                     rt::RtConfig::defaults_for(cpu));
  ASSERT_FALSE(advice.curve.empty());
  EXPECT_EQ(advice.curve.front().threads, 1);
  EXPECT_EQ(advice.curve.back().threads, 40);
  for (const auto& point : advice.curve) {
    EXPECT_GT(point.seconds, 0.0);
    EXPECT_GT(point.parallel_efficiency, 0.0);
    EXPECT_LE(point.parallel_efficiency, 1.05);
  }
  EXPECT_THROW(advise_threads(model, app, app.default_input(), cpu,
                              rt::RtConfig::defaults_for(cpu), -0.1),
               std::invalid_argument);
}

TEST(Tuner, SurrogateSearchBeatsPureRandomAtEqualBudget) {
  const auto& cpu = architecture(ArchId::Milan);
  const auto& app = apps::find_application("xsbench");
  const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);

  sim::ModelRunner runner_a, runner_b;
  core::Tuner random_tuner(runner_a, app, app.default_input(), cpu);
  core::Tuner surrogate_tuner(runner_b, app, app.default_input(), cpu);
  const auto random = random_tuner.random_search(space, cpu.cores, 48);
  const auto surrogate = surrogate_tuner.surrogate_search(space, cpu.cores, 48);

  EXPECT_EQ(surrogate.evaluations, 48u);
  EXPECT_GT(surrogate.speedup, 1.5);
  // The surrogate should at least keep pace with blind random sampling.
  EXPECT_GE(surrogate.speedup, 0.9 * random.speedup);
  EXPECT_THROW(surrogate_tuner.surrogate_search(space, cpu.cores, 0),
               std::invalid_argument);
}

TEST(Tuner, SurrogateSearchNeverWorseThanDefault) {
  const auto& cpu = architecture(ArchId::A64FX);
  const auto& app = apps::find_application("strassen");
  const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);
  sim::ModelRunner runner;
  core::Tuner tuner(runner, app, app.default_input(), cpu);
  const auto result = tuner.surrogate_search(space, cpu.cores, 30);
  EXPECT_GE(result.speedup, 1.0 - 1e-9);
  EXPECT_EQ(result.evaluations, 30u);
}

}  // namespace
}  // namespace omptune::core
