#include "core/study.hpp"

#include "store/reader.hpp"
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

StudyResult Study::analyze(sweep::Dataset dataset,
                           const util::ThreadPool* pool) const {
  // The image lives for this statement only: the fits in derive() never
  // hold it.
  const std::vector<analysis::SettingBest> bests =
      analysis::best_per_setting(store::StoreReader(dataset), pool);
  return derive(bests, std::move(dataset), pool);
}

StudyResult Study::analyze_store(const store::StoreReader& reader,
                                 const util::ThreadPool* pool) const {
  return derive(analysis::best_per_setting(reader, pool), reader.load(pool),
                pool);
}

StudyResult Study::derive(const std::vector<analysis::SettingBest>& bests,
                          sweep::Dataset dataset,
                          const util::ThreadPool* pool) const {
  StudyResult result;
  // Per-setting bests skip quarantined rows; the table and upshot
  // reductions reuse them.
  result.upshot = analysis::upshot_by_arch(bests);
  result.ranges_by_arch = analysis::speedup_ranges_by_arch(bests);
  result.ranges_by_app = analysis::speedup_ranges_by_app(bests);

  // Quarantined samples (failed collection, placeholder values) stay in
  // result.dataset for provenance but are excluded from the models and
  // trends too — their zeroed runtimes/speedups are not measurements.
  sweep::Dataset clean_copy;
  const sweep::Dataset* analysed = &dataset;
  if (dataset.quarantined_count() > 0) {
    clean_copy = dataset.ok_samples();
    analysed = &clean_copy;
  }
  const double threshold = options_.label_threshold;
  result.per_app_influence = analysis::influence_map(
      *analysed, analysis::Grouping::PerApplication, threshold, {}, pool);
  result.per_arch_influence = analysis::influence_map(
      *analysed, analysis::Grouping::PerArchitecture, threshold, {}, pool);
  result.per_arch_app_influence = analysis::influence_map(
      *analysed, analysis::Grouping::PerArchApplication, threshold, {}, pool);
  result.worst_trends = analysis::worst_trends(*analysed);
  result.dataset = std::move(dataset);
  return result;
}

}  // namespace omptune::core
