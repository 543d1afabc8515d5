#include "core/study.hpp"

#include "store/reader.hpp"
#include "util/heap.hpp"
#include "util/thread_pool.hpp"

namespace omptune::core {

Study::Study(sim::Runner& runner, StudyOptions options)
    : runner_(&runner), options_(options) {}

StudyResult Study::run_paper_study(
    const std::function<void(const std::string&)>& progress) const {
  return run(sweep::StudyPlan::paper_plan(), progress);
}

StudyResult Study::run(
    const sweep::StudyPlan& plan,
    const std::function<void(const std::string&)>& progress) const {
  sweep::SweepHarness harness(*runner_, options_.repetitions, options_.seed);
  return analyze(harness.run_study(plan, progress));
}

StudyResult Study::run_supervised(const sweep::StudyPlan& plan,
                                  const sweep::RunnerFactory& make_runner,
                                  sweep::SupervisorOptions supervisor_options,
                                  sweep::SupervisorReport* report,
                                  const util::ThreadPool* pool) const {
  supervisor_options.repetitions = options_.repetitions;
  supervisor_options.seed = options_.seed;
  sweep::StudySupervisor supervisor(make_runner,
                                    std::move(supervisor_options));
  sweep::Dataset dataset = supervisor.run(plan);
  if (report != nullptr) *report = supervisor.report();
  return analyze(std::move(dataset), pool);
}

namespace {

/// The speedup artefacts folded from `bests` and the three influence maps
/// `fit` returns, one per grouping: everything but the dataset and the
/// worst trends.
StudyResult speedups_and_maps(
    const std::vector<analysis::SettingBest>& bests,
    const std::function<analysis::InfluenceMap(analysis::Grouping)>& fit) {
  StudyResult result;
  // Per-setting bests skip quarantined rows; the table and upshot
  // reductions reuse them.
  result.upshot = analysis::upshot_by_arch(bests);
  result.ranges_by_arch = analysis::speedup_ranges_by_arch(bests);
  result.ranges_by_app = analysis::speedup_ranges_by_app(bests);
  result.per_app_influence = fit(analysis::Grouping::PerApplication);
  result.per_arch_influence = fit(analysis::Grouping::PerArchitecture);
  result.per_arch_app_influence = fit(analysis::Grouping::PerArchApplication);
  return result;
}

/// Quarantined samples (failed collection, placeholder values) stay in
/// result.dataset for provenance but are excluded from the models and
/// trends: their zeroed runtimes/speedups are not measurements. Returns
/// `dataset` itself when it has none, else a copy of the rest in `clean`.
const sweep::Dataset& analysed_samples(const sweep::Dataset& dataset,
                                       sweep::Dataset& clean) {
  if (dataset.quarantined_count() == 0) return dataset;
  clean = dataset.ok_samples();
  return clean;
}

}  // namespace

StudyResult Study::analyze(sweep::Dataset dataset,
                           const util::ThreadPool* pool) const {
  // The image lives for this statement only: the fits never hold it.
  const std::vector<analysis::SettingBest> bests =
      analysis::best_per_setting(store::StoreReader(dataset), pool);
  sweep::Dataset clean;
  const sweep::Dataset& analysed = analysed_samples(dataset, clean);
  StudyResult result =
      speedups_and_maps(bests, [&](analysis::Grouping grouping) {
        return analysis::influence_map(analysed, grouping,
                                       options_.label_threshold, {}, pool);
      });
  result.worst_trends = analysis::worst_trends(analysed);
  result.dataset = std::move(dataset);
  return result;
}

StudyResult Study::analyze_store(const store::StoreReader& reader,
                                 const util::ThreadPool* pool) const {
  // The maps fit off the store's slices before the dataset materializes,
  // so their features and the Samples are never alive together.
  StudyResult result = speedups_and_maps(
      analysis::best_per_setting(reader, pool),
      [&](analysis::Grouping grouping) {
        return analysis::influence_map(reader, grouping,
                                       options_.label_threshold, {}, pool);
      });
  // The fits freed their feature columns into the heap; return those pages
  // before the dataset maps its one large block beside them.
  util::release_free_heap();
  result.dataset = reader.load(pool);
  sweep::Dataset clean;
  result.worst_trends =
      analysis::worst_trends(analysed_samples(result.dataset, clean));
  return result;
}

}  // namespace omptune::core
