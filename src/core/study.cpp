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

StudyResult Study::analyze(sweep::Dataset dataset,
                           const util::ThreadPool* pool) const {
  const store::StoreReader image(dataset);
  // The image holds every value the analysis reads; the Samples go before
  // analyze_store materializes its own.
  dataset = sweep::Dataset();
  return analyze_store(image, pool);
}

StudyResult Study::analyze_store(const store::StoreReader& reader,
                                 const util::ThreadPool* pool) const {
  StudyResult result;
  // Per-setting bests skip quarantined rows; the table and upshot
  // reductions reuse them.
  {
    const std::vector<analysis::SettingBest> bests =
        analysis::best_per_setting(reader, pool);
    result.upshot = analysis::upshot_by_arch(bests);
    result.ranges_by_arch = analysis::speedup_ranges_by_arch(bests);
    result.ranges_by_app = analysis::speedup_ranges_by_app(bests);
  }
  // The maps fit off the store's slices before the dataset materializes,
  // so their features and the Samples are never alive together.
  const auto fit = [&](analysis::Grouping grouping) {
    return analysis::influence_map(reader, grouping, options_.label_threshold,
                                   {}, pool);
  };
  result.per_app_influence = fit(analysis::Grouping::PerApplication);
  result.per_arch_influence = fit(analysis::Grouping::PerArchitecture);
  result.per_arch_app_influence = fit(analysis::Grouping::PerArchApplication);
  // The fits freed their feature columns into the heap; return those pages
  // before the dataset maps its one large block beside them.
  util::release_free_heap();
  result.dataset = reader.load(pool);
  // Quarantined samples (failed collection, placeholder values) stay in
  // result.dataset for provenance but are excluded from the trends: their
  // zeroed runtimes/speedups are not measurements.
  result.worst_trends = result.dataset.quarantined_count() == 0
                            ? analysis::worst_trends(result.dataset)
                            : analysis::worst_trends(result.dataset.ok_samples());
  return result;
}

}  // namespace omptune::core
