// Differential test for the coded marginal-value pass: value_marginals
// groups rows by (arch, variable, raw enum/int value) and names each group
// once, instead of building the name strings of every row. Its rows must
// equal, bit for bit, those of the std::map-keyed implementation it
// replaced — kept below verbatim, together with the sort-based quantile it
// called — on a Dataset's in-memory image and on the store at every pool
// size.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/marginals.hpp"
#include "analysis/variables.hpp"
#include "stats/descriptive.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "sweep/dataset.hpp"
#include "sweep/harness.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace omptune {
namespace {

// ---- the replaced implementation, verbatim --------------------------------

double reference_quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: empty input");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q out of [0,1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double reference_median(std::vector<double> values) {
  return reference_quantile(std::move(values), 0.5);
}

using GroupKey = std::tuple<std::string, std::string, std::string>;
using Groups = std::map<GroupKey, std::vector<double>>;

analysis::MarginalRow marginal_row(const GroupKey& key,
                                   std::vector<double>& speedups) {
  analysis::MarginalRow row;
  row.arch = std::get<0>(key);
  row.variable = std::get<1>(key);
  row.value = std::get<2>(key);
  row.samples = speedups.size();
  row.mean_speedup = stats::mean(speedups);
  row.median_speedup = reference_median(speedups);
  row.p95_speedup = reference_quantile(speedups, 0.95);
  std::size_t optimal = 0;
  for (const double s : speedups) optimal += (s > 1.01);
  row.optimal_share =
      static_cast<double>(optimal) / static_cast<double>(speedups.size());
  return row;
}

std::vector<analysis::MarginalRow> reference_marginals(
    const sweep::Dataset& dataset, bool per_arch) {
  Groups groups;
  for (const sweep::Sample& s : dataset.samples()) {
    const std::string arch = per_arch ? s.arch : std::string("all");
    for (const auto& [variable, value] :
         analysis::config_variable_values(s.config)) {
      groups[{arch, variable, value}].push_back(s.speedup);
    }
  }

  std::vector<analysis::MarginalRow> rows;
  rows.reserve(groups.size());
  for (auto& [key, speedups] : groups) {
    rows.push_back(marginal_row(key, speedups));
  }
  return rows;
}

// ---- fixtures ----------------------------------------------------------------

/// Every field drawn from its full domain: all six places and binds, every
/// schedule, library and reduction, blocktime zero, infinite and finite,
/// align 0 (the derived default) plus every explicit alignment, several
/// archs, and ~5% quarantined rows.
sweep::Dataset full_domain_dataset() {
  const char* archs[] = {"a64fx", "milan", "skylake", "thunderx2"};
  const char* apps[] = {"cg", "nqueens", "xsbench"};
  const std::int64_t blocktimes[] = {0, 200, 1000, rt::kBlocktimeInfinite};
  const int aligns[] = {0, 64, 128, 256, 512};
  util::Xoshiro256 rng(31);
  sweep::Dataset dataset;
  for (const char* arch : archs) {
    for (const char* app : apps) {
      for (int c = 0; c < 60; ++c) {
        sweep::Sample s;
        s.arch = arch;
        s.app = app;
        s.suite = "synthetic";
        s.kind = "loop";
        s.input = "small";
        s.threads = 16;
        s.config.num_threads = 16;
        s.config.places = static_cast<arch::PlacesKind>(rng.uniform_index(6));
        s.config.bind = static_cast<arch::BindKind>(rng.uniform_index(6));
        s.config.schedule = static_cast<rt::ScheduleKind>(rng.uniform_index(4));
        s.config.library = static_cast<rt::LibraryMode>(rng.uniform_index(3));
        s.config.blocktime_ms = blocktimes[rng.uniform_index(4)];
        s.config.reduction =
            static_cast<rt::ReductionMethod>(rng.uniform_index(4));
        s.config.align_alloc = aligns[rng.uniform_index(5)];
        for (int r = 0; r < 3; ++r) s.runtimes.push_back(rng.uniform(0.5, 2.0));
        s.mean_runtime = (s.runtimes[0] + s.runtimes[1] + s.runtimes[2]) / 3.0;
        s.default_runtime = 1.0;
        s.speedup = s.default_runtime / s.mean_runtime;
        s.is_default = c == 0;
        if (!s.is_default && rng.uniform_index(20) == 0) {
          s.status = sweep::SampleStatus::Quarantined;
          s.error = "injected";
          for (double& r : s.runtimes) r = 0.0;
          s.mean_runtime = 0.0;
          s.speedup = 0.0;
        }
        dataset.add(std::move(s));
      }
    }
  }
  return dataset;
}

sweep::Dataset mini_study() {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 3, 5);
  return harness.run_study(sweep::StudyPlan::mini_plan(2, 6));
}

void expect_identical(const std::vector<analysis::MarginalRow>& got,
                      const std::vector<analysis::MarginalRow>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const analysis::MarginalRow& g = got[i];
    const analysis::MarginalRow& w = want[i];
    const std::string at = label + " row " + std::to_string(i) + " (" +
                           w.arch + "/" + w.variable + "/" + w.value + ")";
    EXPECT_EQ(g.arch, w.arch) << at;
    EXPECT_EQ(g.variable, w.variable) << at;
    EXPECT_EQ(g.value, w.value) << at;
    EXPECT_EQ(g.samples, w.samples) << at;
    EXPECT_EQ(std::memcmp(&g.mean_speedup, &w.mean_speedup, sizeof(double)), 0) << at;
    EXPECT_EQ(std::memcmp(&g.median_speedup, &w.median_speedup, sizeof(double)), 0)
        << at;
    EXPECT_EQ(std::memcmp(&g.p95_speedup, &w.p95_speedup, sizeof(double)), 0) << at;
    EXPECT_EQ(std::memcmp(&g.optimal_share, &w.optimal_share, sizeof(double)), 0)
        << at;
  }
}

void check_store(const sweep::Dataset& dataset, const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_marginals_" + name + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name + ".omps";
  dataset.save_store(path);
  const store::StoreReader reader(path);
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (const unsigned lanes : {1u, 2u, 4u}) {
    pools.push_back(std::make_unique<util::ThreadPool>(lanes));
  }
  const sweep::Dataset ok = dataset.ok_samples();
  for (const bool per_arch : {true, false}) {
    const std::string label = name + (per_arch ? " per-arch" : " pooled");
    const std::vector<analysis::MarginalRow> want =
        reference_marginals(ok, per_arch);
    ASSERT_FALSE(want.empty());
    expect_identical(analysis::value_marginals(store::StoreReader(ok), per_arch),
                     want, label + " image(ok_samples)");
    // The image of every row skips the quarantined ones, like the store.
    expect_identical(
        analysis::value_marginals(store::StoreReader(dataset), per_arch), want,
        label + " image(all rows)");
    expect_identical(analysis::value_marginals(reader, per_arch), want,
                     label + " store, no pool");
    for (const auto& pool : pools) {
      expect_identical(analysis::value_marginals(reader, per_arch, pool.get()), want,
                       label + " store, " + std::to_string(pool->threads()) +
                           " lanes");
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(MarginalsDifferential, FullDomainStoreMatchesMapReference) {
  const sweep::Dataset dataset = full_domain_dataset();
  ASSERT_LT(dataset.ok_samples().size(), dataset.size())
      << "the fixture must hold quarantined rows";
  check_store(dataset, "full_domain");
}

TEST(MarginalsDifferential, MiniStudyStoreMatchesMapReference) {
  check_store(mini_study(), "mini_study");
}

}  // namespace
}  // namespace omptune
