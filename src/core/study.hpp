#pragma once

// End-to-end study orchestration: the single entry point that reproduces
// the paper — sweep the configuration space per the study plan, validate
// measurement consistency, and derive every analysis artefact (speedup
// ranges, influence heat maps, recommendations, worst trends).

#include <functional>
#include <string>

#include "analysis/influence.hpp"
#include "analysis/recommend.hpp"
#include "analysis/speedup.hpp"
#include "sim/executor.hpp"
#include "sweep/dataset.hpp"
#include "sweep/harness.hpp"

namespace omptune::store {
class StoreReader;
}
namespace omptune::util {
class ThreadPool;
}

namespace omptune::core {

struct StudyOptions {
  /// Repetitions per configuration (paper: 4).
  int repetitions = 4;
  /// Master seed for the whole study.
  std::uint64_t seed = 0x0417D5EEDull;
  /// Threshold above which a sample counts as "optimal" (paper: 1.01).
  double label_threshold = 1.01;
};

struct StudyResult {
  sweep::Dataset dataset;
  std::vector<analysis::ArchUpshot> upshot;                    // §V.1
  std::vector<analysis::ArchAppRange> ranges_by_arch;          // Table V
  std::vector<analysis::AppRange> ranges_by_app;               // Table VI
  analysis::InfluenceMap per_app_influence;                    // Fig 2
  analysis::InfluenceMap per_arch_influence;                   // Fig 3
  analysis::InfluenceMap per_arch_app_influence;               // Fig 4
  std::vector<analysis::WorstTrend> worst_trends;              // §V.4
};

class Study {
 public:
  Study(sim::Runner& runner, StudyOptions options = {});

  /// Run the full paper plan (Table II scale; seconds in model mode).
  StudyResult run_paper_study(
      const std::function<void(const std::string&)>& progress = {}) const;

  /// Run an arbitrary plan.
  StudyResult run(const sweep::StudyPlan& plan,
                  const std::function<void(const std::string&)>& progress = {}) const;

  /// Derive all analysis artefacts from an existing dataset (e.g. loaded
  /// from the open-sourced CSV files): analyze_store over its in-memory
  /// .omps image, with the dataset freed once the image is built. Throws
  /// std::invalid_argument on non-finite values.
  StudyResult analyze(sweep::Dataset dataset,
                      const util::ThreadPool* pool = nullptr) const;

  /// Derive every artefact from a .omps store: the speedup artefacts
  /// (upshot, Tables V/VI) aggregate off the store's setting slices, the
  /// influence maps fit off the same slices, and only then is
  /// result.dataset materialized, row-parallel on the pool, for the worst
  /// trends. With a pool, the aggregation and the maps' group fits run on
  /// it; every artefact is bit-identical at any thread count.
  StudyResult analyze_store(const store::StoreReader& reader,
                            const util::ThreadPool* pool = nullptr) const;

 private:
  sim::Runner* runner_;
  StudyOptions options_;
};

}  // namespace omptune::core
