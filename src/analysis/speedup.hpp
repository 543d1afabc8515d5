#pragma once

// Upshot-potential analysis (paper Section V.1, Tables V and VI):
// per-setting best speedups and their ranges per application/architecture.
//
// Analysis reads rows from one place: the store's zero-copy setting
// slices. best_per_setting aggregates them, on an optional ThreadPool, and
// the table and upshot reductions fold its result; a sweep::Dataset is
// analysed through store::StoreReader(dataset), its in-memory .omps image.
// Output is bit-identical across thread counts: per-run partials are merged
// in run (= row) order, never in completion order.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "rt/config.hpp"

namespace omptune::store {
class StoreReader;
}
namespace omptune::util {
class ThreadPool;
}

namespace omptune::analysis {

/// Best observed speedup within one experiment setting.
struct SettingBest {
  std::string arch;
  std::string app;
  std::string input;
  int threads = 0;
  double best_speedup = 1.0;
  rt::RtConfig best_config;
};

/// Best speedup per setting (one entry per distinct (arch, app, input,
/// threads), in first-appearance order), aggregated off the store's
/// zero-copy setting slices. Quarantined rows are skipped. Runs aggregate in
/// parallel on `pool`; runs sharing a key fold in run order, and the
/// earliest of tied rows wins.
std::vector<SettingBest> best_per_setting(const store::StoreReader& reader,
                                          const util::ThreadPool* pool = nullptr);

/// Best setting per (app, arch) pair, keyed {app, arch}.
using PairBests = std::map<std::pair<std::string, std::string>, SettingBest>;

/// Fold per-setting bests into PairBests: a pair's best is the first entry of
/// `bests` attaining its highest best_speedup (a later entry replaces it only
/// when strictly greater). With `arch`, only that architecture's pairs are
/// kept.
PairBests best_per_pair(const std::vector<SettingBest>& bests,
                        const std::string* arch = nullptr);

/// Table V row: the [min, max] over settings of the per-setting best for
/// one (app, arch).
struct ArchAppRange {
  std::string app;
  std::string arch;
  double lo = 0;
  double hi = 0;
};

std::vector<ArchAppRange> speedup_ranges_by_arch(
    const std::vector<SettingBest>& bests);

/// Table VI row: the [min, max] over (arch, setting) for one app.
struct AppRange {
  std::string app;
  double lo = 0;
  double hi = 0;
};

std::vector<AppRange> speedup_ranges_by_app(const std::vector<SettingBest>& bests);

/// Section V.1 headline numbers per architecture: the min / median / max of
/// the per-setting best speedups.
struct ArchUpshot {
  std::string arch;
  double min_best = 0;
  double median_best = 0;
  double max_best = 0;
};

std::vector<ArchUpshot> upshot_by_arch(const std::vector<SettingBest>& bests);

}  // namespace omptune::analysis
