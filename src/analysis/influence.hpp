#pragma once

// Feature-influence analysis (paper Section IV-D / Figs 2-4): label samples
// optimal vs sub-optimal, fit a logistic regression per group, and report
// the weight-normalized |coefficient| of every feature. Darker cell =
// larger share of the decision boundary = more influential variable.

#include <string>
#include <vector>

#include "ml/features.hpp"
#include "ml/logistic_regression.hpp"
#include "sweep/dataset.hpp"

namespace omptune::store {
class StoreReader;
}
namespace omptune::util {
class ThreadPool;
}

namespace omptune::analysis {

/// The paper's three grouping strategies (IV-D).
enum class Grouping {
  PerApplication,      ///< one row per app, all archs pooled (Fig 2)
  PerArchitecture,     ///< one row per arch, all apps pooled (Fig 3)
  PerArchApplication,  ///< one row per (arch, app) pair (Fig 4)
};

std::string to_string(Grouping grouping);

struct InfluenceRow {
  std::string group;               ///< e.g. "cg", "milan", "milan/cg"
  std::vector<double> influence;   ///< per feature, sums to 1
  double model_accuracy = 0.0;     ///< training accuracy of the classifier
  double positive_share = 0.0;     ///< fraction labelled optimal
  std::size_t samples = 0;
};

struct InfluenceMap {
  std::vector<std::string> feature_names;
  std::vector<InfluenceRow> rows;

  /// Influence of `feature` in `group`; throws if either is unknown.
  double at(const std::string& group, const std::string& feature) const;
};

/// Build the influence map for a grouping. Groups whose labels are all
/// identical (degenerate classification) are skipped — mirroring e.g. Sort
/// and Strassen showing no reliance where they were not executed.
///
/// Each group's rows are encoded and standardized straight into the
/// solver's column blocks (no per-group Dataset copy) by the one fitting
/// core both overloads share, then every group is fitted by one lock-step
/// LogisticRegression::fit_batch: each epoch is one parallel_for over the
/// 1024-row tiles of all groups still running, so
/// small groups share `pool`'s lanes instead of leaving them idle. Rows
/// are emitted in group first-appearance order and each group's weights
/// equal its own fit(), so the map is bit-identical at any thread count.
InfluenceMap influence_map(const sweep::Dataset& dataset, Grouping grouping,
                           double label_threshold = 1.01,
                           ml::LogisticOptions options = {},
                           const util::ThreadPool* pool = nullptr);

/// The same fit over `reader`'s non-quarantined rows, read straight off its
/// setting slices: no Sample is materialized. With `arch`, only that
/// architecture's settings are read. Rows keep store order, so the map is
/// bit-identical to influence_map(reader.load().ok_samples(), ...) (with
/// `arch`: of reader.query({arch}).ok_samples()). Runs the reader's scan
/// validation.
InfluenceMap influence_map(const store::StoreReader& reader, Grouping grouping,
                           double label_threshold = 1.01,
                           ml::LogisticOptions options = {},
                           const util::ThreadPool* pool = nullptr,
                           const std::string* arch = nullptr);

}  // namespace omptune::analysis
