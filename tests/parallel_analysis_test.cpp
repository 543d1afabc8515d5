// Determinism suite for the parallel analytics engine: the slice kernels
// must equal the row-order Dataset walks they replaced exactly (kept below
// as test-local references), and every analysis must be bit-identical
// across pool sizes 1, 2, 7 and 16 — thread count may only ever change
// wall-clock time.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "analysis/marginals.hpp"
#include "analysis/recommend.hpp"
#include "analysis/speedup.hpp"
#include "analysis/variables.hpp"
#include "core/study.hpp"
#include "ml/features.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/random_forest.hpp"
#include "store/reader.hpp"
#include "sweep/dataset.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace omptune {
namespace {

/// Study-shaped dataset with real structure for the model fits and a
/// sprinkling of quarantined placeholder rows the analyses must skip.
sweep::Dataset synthetic_dataset(std::size_t target) {
  const char* archs[] = {"a64fx", "milan", "skylake"};
  const char* apps[] = {"bt", "cg", "health", "nqueens", "rsbench", "xsbench"};
  const char* inputs[] = {"small", "large"};
  util::Xoshiro256 rng(7);
  sweep::Dataset dataset;
  for (const char* arch : archs) {
    for (const char* app : apps) {
      for (const char* input : inputs) {
        const std::size_t configs = target / (3 * 6 * 2);
        for (std::size_t c = 0; c < configs; ++c) {
          sweep::Sample s;
          s.arch = arch;
          s.app = app;
          s.suite = "synthetic";
          s.kind = c % 2 == 0 ? "loop" : "task";
          s.input = input;
          s.threads = 48;
          s.config.num_threads = 48;
          s.config.places = static_cast<arch::PlacesKind>(rng.uniform_index(6));
          s.config.bind = static_cast<arch::BindKind>(rng.uniform_index(6));
          s.config.schedule =
              static_cast<rt::ScheduleKind>(rng.uniform_index(4));
          s.config.chunk = static_cast<int>(rng.uniform_index(4)) * 8;
          s.config.library = static_cast<rt::LibraryMode>(rng.uniform_index(3));
          s.config.blocktime_ms =
              static_cast<std::int64_t>(rng.uniform_index(5)) * 100;
          s.config.reduction =
              static_cast<rt::ReductionMethod>(rng.uniform_index(4));
          s.config.align_alloc = 64 << rng.uniform_index(4);
          const double base =
              1.7 *
              (s.config.library == rt::LibraryMode::Throughput ? 0.8 : 1.1) *
              (s.config.bind == arch::BindKind::Spread ? 0.9 : 1.0);
          for (int r = 0; r < 4; ++r) {
            s.runtimes.push_back(base * rng.uniform(0.85, 1.15));
          }
          s.mean_runtime = (s.runtimes[0] + s.runtimes[1] + s.runtimes[2] +
                            s.runtimes[3]) / 4.0;
          s.default_runtime = 1.7;
          s.speedup = s.default_runtime / s.mean_runtime;
          s.is_default = c == 0;
          // ~4% quarantined placeholders: zeroed measurements that must not
          // leak into any statistic.
          if (!s.is_default && rng.uniform_index(25) == 0) {
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
  }
  return dataset;
}

// ---- the replaced Dataset walks, verbatim ---------------------------------
// The row-order Dataset implementations of best_per_setting and
// recommend_for_app that the store-slice kernels replaced, kept as an
// independent reference. Ranges and upshot are derived from these bests.

using analysis::Recommendation;
using analysis::SettingBest;
using analysis::config_variable_values;

std::vector<SettingBest> reference_best_per_setting(const sweep::Dataset& dataset) {
  std::map<std::string, SettingBest> by_setting;
  std::vector<std::string> order;
  for (const sweep::Sample& s : dataset.samples()) {
    // Quarantined samples carry placeholder runtimes/speedups, not
    // measurements — they must not seed or win a setting's best.
    if (s.is_quarantined()) continue;
    const std::string key = s.arch + "/" + s.app + "/" + s.input + "/" +
                            std::to_string(s.threads);
    auto it = by_setting.find(key);
    if (it == by_setting.end()) {
      order.push_back(key);
      SettingBest best;
      best.arch = s.arch;
      best.app = s.app;
      best.input = s.input;
      best.threads = s.threads;
      best.best_speedup = s.speedup;
      best.best_config = s.config;
      by_setting.emplace(key, std::move(best));
    } else if (s.speedup > it->second.best_speedup) {
      it->second.best_speedup = s.speedup;
      it->second.best_config = s.config;
    }
  }
  std::vector<SettingBest> out;
  out.reserve(order.size());
  for (const std::string& key : order) out.push_back(by_setting.at(key));
  return out;
}

using VariableValue = std::pair<std::string, std::string>;

/// Value frequencies of one (app, arch) group: overall and among near-best
/// samples. Pure counts, so the scan's merge order cannot affect them.
struct ArchCounts {
  std::map<VariableValue, std::size_t> overall, best;
  std::size_t n_best = 0;
  std::size_t n_total = 0;
};

/// Assemble recommendations from per-arch counts — the shared back half of
/// both recommend_for_app overloads. `archs` is in first-appearance order.
std::vector<Recommendation> recommendations_from_counts(
    const std::string& app, const std::vector<std::string>& archs,
    const std::map<std::string, ArchCounts>& by_arch, double min_lift) {
  std::vector<Recommendation> recommendations;
  std::map<VariableValue, std::set<std::string>> everywhere;

  for (const std::string& arch : archs) {
    const ArchCounts& counts = by_arch.at(arch);
    if (counts.n_best == 0) continue;
    const auto n_total = static_cast<double>(counts.n_total);
    for (const auto& [vv, best_count] : counts.best) {
      const double share_best =
          static_cast<double>(best_count) / static_cast<double>(counts.n_best);
      const double share_all =
          static_cast<double>(counts.overall.at(vv)) / n_total;
      if (share_all <= 0.0) continue;
      const double lift = share_best / share_all;
      if (lift >= min_lift && share_best >= 0.3) {
        Recommendation rec;
        rec.app = app;
        rec.arch = arch;
        rec.variable = vv.first;
        rec.value = vv.second;
        rec.lift = lift;
        rec.share_in_best = share_best;
        recommendations.push_back(rec);
        everywhere[vv].insert(arch);
      }
    }
  }

  // Promote pairs recommended on every architecture to scope "all".
  for (const auto& [vv, arch_set] : everywhere) {
    if (arch_set.size() == archs.size() && archs.size() > 1) {
      double lift = 0.0, share = 0.0;
      for (const Recommendation& rec : recommendations) {
        if (rec.variable == vv.first && rec.value == vv.second) {
          lift = std::max(lift, rec.lift);
          share = std::max(share, rec.share_in_best);
        }
      }
      recommendations.push_back(
          Recommendation{app, "all", vv.first, vv.second, lift, share});
    }
  }

  std::sort(recommendations.begin(), recommendations.end(),
            [](const Recommendation& a, const Recommendation& b) {
              if (a.arch != b.arch) return a.arch < b.arch;
              return a.lift > b.lift;
            });
  return recommendations;
}

std::vector<Recommendation> reference_recommend_for_app(
    const sweep::Dataset& dataset, const std::string& app,
    double tolerance = 0.01, double min_lift = 1.3) {
  const sweep::Dataset app_data =
      dataset.filter([&app](const sweep::Sample& s) { return s.app == app; });

  // Per-setting best speedups, to define "near-best".
  std::map<std::string, double> setting_best;
  auto setting_key = [](const sweep::Sample& s) {
    return s.arch + "/" + s.input + "/" + std::to_string(s.threads);
  };
  for (const sweep::Sample& s : app_data.samples()) {
    double& best = setting_best[setting_key(s)];
    best = std::max(best, s.speedup);
  }

  const std::vector<std::string> archs =
      app_data.distinct([](const sweep::Sample& s) { return s.arch; });

  std::map<std::string, ArchCounts> by_arch;
  for (const sweep::Sample& s : app_data.samples()) {
    ArchCounts& counts = by_arch[s.arch];
    ++counts.n_total;
    const bool near_best =
        s.speedup >= setting_best.at(setting_key(s)) * (1.0 - tolerance) &&
        s.speedup > 1.01;
    for (const auto& vv : config_variable_values(s.config)) {
      ++counts.overall[vv];
      if (near_best) ++counts.best[vv];
    }
    if (near_best) ++counts.n_best;
  }

  return recommendations_from_counts(app, archs, by_arch, min_lift);
}

/// Shared golden store: built once, read by every test in the binary.
struct Golden {
  std::string dir;
  sweep::Dataset dataset;
  std::unique_ptr<store::StoreReader> reader;
  std::vector<std::unique_ptr<util::ThreadPool>> pools;  // 1, 2, 7, 16 lanes

  Golden() {
    dir = (std::filesystem::temp_directory_path() /
           ("omptune_par_test_" + std::to_string(::getpid())))
              .string();
    std::filesystem::create_directories(dir);
    dataset = synthetic_dataset(3600);
    const std::string path = dir + "/golden.omps";
    dataset.save_store(path);
    reader = std::make_unique<store::StoreReader>(path);
    for (const unsigned lanes : {1u, 2u, 7u, 16u}) {
      pools.push_back(std::make_unique<util::ThreadPool>(lanes));
    }
  }
  ~Golden() { std::filesystem::remove_all(dir); }
};

const Golden& golden() {
  static Golden g;
  return g;
}

void expect_equal(const std::vector<analysis::SettingBest>& got,
                  const std::vector<analysis::SettingBest>& want,
                  const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].arch, want[i].arch) << label << " row " << i;
    EXPECT_EQ(got[i].app, want[i].app) << label << " row " << i;
    EXPECT_EQ(got[i].input, want[i].input) << label << " row " << i;
    EXPECT_EQ(got[i].threads, want[i].threads) << label << " row " << i;
    EXPECT_EQ(got[i].best_speedup, want[i].best_speedup) << label << " row " << i;
    EXPECT_EQ(got[i].best_config.key(), want[i].best_config.key())
        << label << " row " << i;
  }
}

TEST(ParallelAnalysisTest, BestPerSettingEqualsDatasetWalkAtEveryPoolSize) {
  const Golden& g = golden();
  const auto want = reference_best_per_setting(g.dataset.ok_samples());
  expect_equal(analysis::best_per_setting(*g.reader, nullptr), want, "serial");
  for (const auto& pool : g.pools) {
    expect_equal(analysis::best_per_setting(*g.reader, pool.get()), want,
                 std::to_string(pool->threads()) + " lanes");
  }

  // Interleaved rows split each setting into many runs; the image folds
  // them back to the row-order walk's answer.
  std::vector<sweep::Sample> rows = g.dataset.samples();
  util::Xoshiro256 rng(11);
  for (std::size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.uniform_index(i)]);
  }
  const sweep::Dataset interleaved(std::move(rows));
  const store::StoreReader image(interleaved);
  ASSERT_GT(image.setting_count(), want.size());
  expect_equal(analysis::best_per_setting(image, g.pools.back().get()),
               reference_best_per_setting(interleaved), "interleaved");
}

TEST(ParallelAnalysisTest, RangesAndUpshotEqualDatasetWalkAtEveryPoolSize) {
  const Golden& g = golden();
  const auto want_bests = reference_best_per_setting(g.dataset.ok_samples());
  const auto want_arch = analysis::speedup_ranges_by_arch(want_bests);
  const auto want_app = analysis::speedup_ranges_by_app(want_bests);
  const auto want_upshot = analysis::upshot_by_arch(want_bests);
  for (const auto& pool : g.pools) {
    const auto bests = analysis::best_per_setting(*g.reader, pool.get());
    const auto by_arch = analysis::speedup_ranges_by_arch(bests);
    ASSERT_EQ(by_arch.size(), want_arch.size());
    for (std::size_t i = 0; i < by_arch.size(); ++i) {
      EXPECT_EQ(by_arch[i].app, want_arch[i].app);
      EXPECT_EQ(by_arch[i].arch, want_arch[i].arch);
      EXPECT_EQ(by_arch[i].lo, want_arch[i].lo);
      EXPECT_EQ(by_arch[i].hi, want_arch[i].hi);
    }
    const auto by_app = analysis::speedup_ranges_by_app(bests);
    ASSERT_EQ(by_app.size(), want_app.size());
    for (std::size_t i = 0; i < by_app.size(); ++i) {
      EXPECT_EQ(by_app[i].app, want_app[i].app);
      EXPECT_EQ(by_app[i].lo, want_app[i].lo);
      EXPECT_EQ(by_app[i].hi, want_app[i].hi);
    }
    const auto upshot = analysis::upshot_by_arch(bests);
    ASSERT_EQ(upshot.size(), want_upshot.size());
    for (std::size_t i = 0; i < upshot.size(); ++i) {
      EXPECT_EQ(upshot[i].arch, want_upshot[i].arch);
      EXPECT_EQ(upshot[i].min_best, want_upshot[i].min_best);
      EXPECT_EQ(upshot[i].median_best, want_upshot[i].median_best);
      EXPECT_EQ(upshot[i].max_best, want_upshot[i].max_best);
    }
  }
}

TEST(ParallelAnalysisTest, MarginalsEqualOkRowImageAtEveryPoolSize) {
  // marginals_differential_test pins the values against the replaced map
  // implementation; here the store's rows (quarantined ones included) must
  // summarise exactly like the image of the non-quarantined rows alone.
  const Golden& g = golden();
  const store::StoreReader ok_image(g.dataset.ok_samples());
  for (const bool per_arch : {true, false}) {
    const auto want = analysis::value_marginals(ok_image, per_arch);
    for (const auto& pool : g.pools) {
      const auto got = analysis::value_marginals(*g.reader, per_arch, pool.get());
      ASSERT_EQ(got.size(), want.size()) << per_arch;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].arch, want[i].arch);
        EXPECT_EQ(got[i].variable, want[i].variable);
        EXPECT_EQ(got[i].value, want[i].value);
        EXPECT_EQ(got[i].samples, want[i].samples);
        EXPECT_EQ(got[i].mean_speedup, want[i].mean_speedup);
        EXPECT_EQ(got[i].median_speedup, want[i].median_speedup);
        EXPECT_EQ(got[i].p95_speedup, want[i].p95_speedup);
        EXPECT_EQ(got[i].optimal_share, want[i].optimal_share);
      }
    }
  }
}

TEST(ParallelAnalysisTest, RecommendationsEqualDatasetWalkAtEveryPoolSize) {
  const Golden& g = golden();
  for (const char* app : {"nqueens", "xsbench"}) {
    const auto want = reference_recommend_for_app(g.dataset, app);
    for (const auto& pool : g.pools) {
      const auto got =
          analysis::recommend_for_app(*g.reader, app, 0.01, 1.3, pool.get());
      ASSERT_EQ(got.size(), want.size()) << app;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].app, want[i].app);
        EXPECT_EQ(got[i].arch, want[i].arch);
        EXPECT_EQ(got[i].variable, want[i].variable);
        EXPECT_EQ(got[i].value, want[i].value);
        EXPECT_EQ(got[i].lift, want[i].lift);
        EXPECT_EQ(got[i].share_in_best, want[i].share_in_best);
      }
    }
  }
}

void expect_equal(const analysis::InfluenceMap& got,
                  const analysis::InfluenceMap& want, const std::string& label) {
  ASSERT_EQ(got.feature_names, want.feature_names) << label;
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  for (std::size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].group, want.rows[i].group) << label;
    EXPECT_EQ(got.rows[i].influence, want.rows[i].influence) << label;
    EXPECT_EQ(got.rows[i].model_accuracy, want.rows[i].model_accuracy) << label;
    EXPECT_EQ(got.rows[i].positive_share, want.rows[i].positive_share) << label;
    EXPECT_EQ(got.rows[i].samples, want.rows[i].samples) << label;
  }
}

TEST(ParallelAnalysisTest, AnalyzeStoreEqualsSerialAnalyzeAtEveryPoolSize) {
  const Golden& g = golden();
  sim::ModelRunner runner;
  const core::Study study(runner);
  const core::StudyResult want = study.analyze(g.dataset);  // no pool
  for (const auto& pool : g.pools) {
    const core::StudyResult got = study.analyze_store(*g.reader, pool.get());
    EXPECT_EQ(got.dataset.size(), want.dataset.size());
    ASSERT_EQ(got.upshot.size(), want.upshot.size());
    for (std::size_t i = 0; i < got.upshot.size(); ++i) {
      EXPECT_EQ(got.upshot[i].arch, want.upshot[i].arch);
      EXPECT_EQ(got.upshot[i].min_best, want.upshot[i].min_best);
      EXPECT_EQ(got.upshot[i].median_best, want.upshot[i].median_best);
      EXPECT_EQ(got.upshot[i].max_best, want.upshot[i].max_best);
    }
    expect_equal(got.per_app_influence, want.per_app_influence, "per-app");
    expect_equal(got.per_arch_influence, want.per_arch_influence, "per-arch");
    expect_equal(got.per_arch_app_influence, want.per_arch_app_influence,
                 "per-arch-app");
    ASSERT_EQ(got.worst_trends.size(), want.worst_trends.size());
    for (std::size_t i = 0; i < got.worst_trends.size(); ++i) {
      EXPECT_EQ(got.worst_trends[i].condition, want.worst_trends[i].condition);
      EXPECT_EQ(got.worst_trends[i].lift, want.worst_trends[i].lift);
    }
  }
}

TEST(ParallelAnalysisTest, LogisticFitBitIdenticalAcrossPoolSizes) {
  const Golden& g = golden();
  const ml::FeatureEncoder encoder;
  const sweep::Dataset clean = g.dataset.ok_samples();
  const ml::Matrix x = encoder.encode(clean);
  const std::vector<int> y = ml::FeatureEncoder::labels(clean);

  ml::LogisticRegression serial;
  serial.fit(x, y, nullptr);
  for (const auto& pool : g.pools) {
    ml::LogisticRegression parallel;
    parallel.fit(x, y, pool.get());
    EXPECT_EQ(parallel.coefficients(), serial.coefficients())
        << pool->threads() << " lanes";
    EXPECT_EQ(parallel.intercept(), serial.intercept());
    EXPECT_EQ(parallel.predict_proba(x, pool.get()),
              serial.predict_proba(x, nullptr));
    EXPECT_EQ(parallel.accuracy(x, y, pool.get()), serial.accuracy(x, y));
  }
}

TEST(ParallelAnalysisTest, ForestFitBitIdenticalAcrossPoolSizes) {
  const Golden& g = golden();
  const ml::FeatureEncoder encoder;
  const sweep::Dataset clean = g.dataset.ok_samples();
  const ml::Matrix x = encoder.encode(clean);
  const std::vector<int> y = ml::FeatureEncoder::labels(clean);

  ml::ForestOptions options;
  options.num_trees = 12;
  ml::RandomForest serial(options);
  serial.fit(x, y, nullptr);
  for (const auto& pool : g.pools) {
    ml::RandomForest parallel(options);
    parallel.fit(x, y, pool.get());
    EXPECT_EQ(parallel.predict_proba(x), serial.predict_proba(x))
        << pool->threads() << " lanes";
    EXPECT_EQ(parallel.oob_accuracy(), serial.oob_accuracy());
    EXPECT_EQ(parallel.feature_importance(), serial.feature_importance());
  }
}

TEST(ParallelAnalysisTest, ScanCountsRuntimeSectionBytesExactlyOnce) {
  // The traffic counter is atomic (workers bump it concurrently during
  // query materialization) and scan validation charges the whole runtime
  // section exactly once, no matter how many slice walks follow.
  const Golden& g = golden();
  const std::string path = g.dir + "/counter.omps";
  g.dataset.save_store(path);
  const store::StoreReader reader(path);
  EXPECT_EQ(reader.runtime_bytes_touched(), 0u);

  const std::uint64_t runtime_section_bytes =
      static_cast<std::uint64_t>(reader.size()) * reader.repetitions() * 8;
  std::atomic<std::size_t> settings_seen{0};
  const util::ThreadPool pool(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    settings_seen = 0;
    reader.ensure_scan_validated();
    util::parallel_for(&pool, reader.setting_count(), 1,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t r = begin; r < end; ++r) {
                           settings_seen.fetch_add(1, std::memory_order_relaxed);
                           EXPECT_GT(reader.setting_slice(r).rows, 0u);
                         }
                       });
    EXPECT_EQ(settings_seen.load(), reader.setting_count());
    EXPECT_EQ(reader.runtime_bytes_touched(), runtime_section_bytes);
  }
}

}  // namespace
}  // namespace omptune
