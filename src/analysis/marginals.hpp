#pragma once

// Marginal value analysis: the paper's stated goal of "form[ing]
// qualitative relations between features" made explicit — for every
// environment variable and every value it takes, the distribution of
// speedups across the samples holding that value, per architecture.
// This is the drill-down a reader performs on the violin plots.

#include <string>
#include <vector>

namespace omptune::store {
class StoreReader;
}
namespace omptune::util {
class ThreadPool;
}

namespace omptune::analysis {

struct MarginalRow {
  std::string arch;        ///< "all" for the pooled row
  std::string variable;    ///< paper spelling, e.g. "KMP_LIBRARY"
  std::string value;       ///< e.g. "turnaround"
  std::size_t samples = 0;
  double mean_speedup = 0;
  double median_speedup = 0;
  double p95_speedup = 0;      ///< tail potential of this value
  double optimal_share = 0;    ///< fraction with speedup > 1.01
};

/// Per-(arch, variable, value) speedup summaries over the non-quarantined
/// rows, aggregated off the store's setting slices; `per_arch` false pools
/// the architectures into "all" rows. A sweep::Dataset is summarised through
/// store::StoreReader(dataset). The group gather merges per-chunk partials
/// in run order and the per-group stats are independent, so the result is
/// identical at any thread count.
std::vector<MarginalRow> value_marginals(const store::StoreReader& reader,
                                         bool per_arch = true,
                                         const util::ThreadPool* pool = nullptr);

/// Convenience: the single best value of `variable` on `arch` by median
/// speedup; throws std::invalid_argument when absent from the dataset.
MarginalRow best_value_of(const std::vector<MarginalRow>& marginals,
                          const std::string& arch, const std::string& variable);

}  // namespace omptune::analysis
