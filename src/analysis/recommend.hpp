#pragma once

// Recommendation extraction (paper Table VII) and worst-performance trend
// mining (Section V.4).

#include <string>
#include <vector>

#include "sweep/dataset.hpp"

namespace omptune::store {
class StoreReader;
}
namespace omptune::util {
class ThreadPool;
}

namespace omptune::analysis {

/// One recommended variable/value pair for an (app, arch) scope, with the
/// lift of that value among near-best configurations relative to its base
/// rate in the whole group.
struct Recommendation {
  std::string app;
  std::string arch;      ///< "all" when consistent across architectures
  std::string variable;  ///< paper spelling, e.g. "KMP_LIBRARY"
  std::string value;     ///< e.g. "turnaround"
  double lift = 1.0;     ///< P(value | near-best) / P(value)
  double share_in_best = 0.0;
};

/// Extract the dominant variable/value pairs among near-best configurations
/// (within `tolerance` of the setting's best speedup) for one application.
/// Returns per-arch recommendations, plus "all"-scoped entries for values
/// dominant on every architecture (e.g. NQueens: KMP_LIBRARY=turnaround).
/// Aggregates `app`'s rows straight off the store's zero-copy setting
/// slices — the other applications' runtime blocks are never touched; a
/// sweep::Dataset is read through store::StoreReader(dataset). Settings
/// scan in parallel on `pool`; per-chunk counts merge in run order, so the
/// result is identical at any thread count.
std::vector<Recommendation> recommend_for_app(const store::StoreReader& store,
                                              const std::string& app,
                                              double tolerance = 0.01,
                                              double min_lift = 1.3,
                                              const util::ThreadPool* pool = nullptr);

/// Worst-performance trend (RQ4): how over-represented a condition is in
/// the slowest decile of samples.
struct WorstTrend {
  std::string condition;      ///< human-readable description
  double share_in_worst = 0;  ///< frequency within the slowest decile
  double share_overall = 0;   ///< base rate
  double lift = 0;            ///< ratio of the two
};

/// Mine the slowest `decile` (default bottom 10% by speedup) for the
/// paper's reported trend: master/primary binding with large thread counts,
/// plus the other binding conditions for comparison.
std::vector<WorstTrend> worst_trends(const sweep::Dataset& dataset,
                                     double decile = 0.1);

}  // namespace omptune::analysis
