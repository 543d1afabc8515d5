// Differential test for slice-fed influence fits: influence_map over a
// StoreReader reads the setting slices directly, and KnowledgeBase(reader,
// arch) and Snapshot::load fit from those slices instead of materializing
// reader.query(arch). Every map must equal, bit for bit, the Dataset fit
// they replaced — kept below verbatim, with KnowledgeBase's priority ladder —
// run on the materialized non-quarantined rows, for every grouping, with
// and without an arch filter, at 1, 2 and 4 lanes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/influence.hpp"
#include "analysis/speedup.hpp"
#include "core/tuner.hpp"
#include "ml/features.hpp"
#include "ml/scaler.hpp"
#include "serve/snapshot.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "sweep/dataset.hpp"
#include "sweep/harness.hpp"
#include "util/fs.hpp"
#include "util/thread_pool.hpp"

namespace omptune::analysis {
namespace {

// ---- the replaced implementation, verbatim --------------------------------

ml::FeatureOptions options_for(Grouping grouping) {
  ml::FeatureOptions options;
  switch (grouping) {
    case Grouping::PerApplication:
      // Pooling architectures: the Architecture placeholder column reveals
      // how architecture-dependent an app's tuning is (Fig 2).
      options.include_architecture = true;
      break;
    case Grouping::PerArchitecture:
      // Pooling applications: the Application column (Fig 3).
      options.include_application = true;
      break;
    case Grouping::PerArchApplication:
      break;
  }
  return options;
}

/// The group a sample belongs to; it depends on arch and app alone.
std::string group_key(const sweep::Sample& s, Grouping grouping) {
  switch (grouping) {
    case Grouping::PerApplication: return s.app;
    case Grouping::PerArchitecture: return s.arch;
    case Grouping::PerArchApplication: return s.arch + "/" + s.app;
  }
  throw std::invalid_argument("group_key: bad Grouping");
}

struct Group {
  std::string key;
  std::vector<std::size_t> rows;  ///< dataset indices, ascending
};

/// Every group's rows in one pass, groups in first-appearance order.
std::vector<Group> group_rows(const sweep::Dataset& dataset, Grouping grouping) {
  std::vector<Group> groups;
  std::unordered_map<std::string, std::size_t> index;
  const std::vector<sweep::Sample>& samples = dataset.samples();
  std::size_t current = 0;
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const sweep::Sample& s = samples[r];
    // Rows arrive in runs sharing (arch, app); only a new pair looks its
    // key up.
    if (r == 0 || s.arch != samples[r - 1].arch ||
        s.app != samples[r - 1].app) {
      const auto [it, added] =
          index.try_emplace(group_key(s, grouping), groups.size());
      if (added) groups.push_back({it->first, {}});
      current = it->second;
    }
    groups[current].rows.push_back(r);
  }
  return groups;
}

/// A group's encoded rows in the solver's layout, standardized in place.
ml::ColumnBlocks encode_group(const sweep::Dataset& dataset,
                              const std::vector<std::size_t>& rows,
                              const ml::FeatureEncoder& encoder) {
  ml::ColumnBlocks x(rows.size(), encoder.num_features());
  std::vector<double> encoded(encoder.num_features());
  for (std::size_t chunk = 0; chunk < x.chunks(); ++chunk) {
    const std::size_t begin = chunk * ml::ColumnBlocks::kChunkRows;
    for (std::size_t i = 0; i < x.chunk_rows(chunk); ++i) {
      encoder.encode_sample_into(dataset.samples()[rows[begin + i]],
                                 encoded.data());
      for (std::size_t c = 0; c < encoded.size(); ++c) {
        x.column(chunk, c)[i] = encoded[c];
      }
    }
  }
  ml::StandardScaler().fit_transform(x);
  return x;
}

InfluenceMap reference_influence_map(const sweep::Dataset& dataset, Grouping grouping,
                           double label_threshold, ml::LogisticOptions options,
                           const util::ThreadPool* pool) {
  const ml::FeatureEncoder encoder(options_for(grouping));
  InfluenceMap map;
  map.feature_names = encoder.names();

  // Label and encode every group, concurrently; a degenerate group keeps
  // empty features.
  const std::vector<Group> groups = group_rows(dataset, grouping);
  std::vector<std::vector<int>> labels(groups.size());
  std::vector<std::size_t> positives(groups.size(), 0);
  std::vector<ml::ColumnBlocks> features(groups.size());
  util::parallel_for(
      pool, groups.size(), 1, [&](std::size_t g, std::size_t, std::size_t) {
        labels[g].reserve(groups[g].rows.size());
        for (const std::size_t r : groups[g].rows) {
          labels[g].push_back(
              ml::FeatureEncoder::label(dataset.samples()[r], label_threshold));
        }
        positives[g] = static_cast<std::size_t>(
            std::count(labels[g].begin(), labels[g].end(), 1));
        if (positives[g] == 0 || positives[g] == labels[g].size()) {
          // Degenerate group: a single class carries no separating signal.
          return;
        }
        features[g] = encode_group(dataset, groups[g].rows, encoder);
      });

  // Fit every other group in one lock-step batch; rows come out in group
  // first-appearance order and each fit equals its own fit(), so the map
  // is bit-identical at any thread count.
  std::vector<std::size_t> fitted;
  std::vector<ml::LogisticProblem> problems;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (features[g].rows() == 0) continue;
    fitted.push_back(g);
    problems.push_back({&features[g], &labels[g]});
  }
  std::vector<ml::LogisticRegression> models(fitted.size(),
                                             ml::LogisticRegression(options));
  ml::LogisticRegression::fit_batch(models, problems, pool);

  for (std::size_t i = 0; i < fitted.size(); ++i) {
    const std::size_t g = fitted[i];
    InfluenceRow row;
    row.group = groups[g].key;
    row.influence = models[i].normalized_influence();
    row.model_accuracy = models[i].accuracy(features[g], labels[g], pool);
    row.positive_share = static_cast<double>(positives[g]) /
                         static_cast<double>(labels[g].size());
    row.samples = labels[g].size();
    map.rows.push_back(std::move(row));
  }
  return map;
}

/// Environment variables, most-influential-first fallback ordering from the
/// paper's Fig. 3 (threads > bind > places > library/blocktime >
/// reduction/align).
const std::vector<std::string>& fig3_fallback_order() {
  static const std::vector<std::string> order = {
      "OMP_NUM_THREADS",   "OMP_PROC_BIND",       "OMP_PLACES",
      "OMP_SCHEDULE",      "KMP_LIBRARY",         "KMP_BLOCKTIME",
      "KMP_FORCE_REDUCTION", "KMP_ALIGN_ALLOC",
  };
  return order;
}

std::vector<std::string> order_from_row(const analysis::InfluenceMap& map,
                                        const analysis::InfluenceRow& row) {
  // Restrict to the tunable environment variables (drop the placeholder
  // Architecture/Application/Input Size columns).
  std::vector<std::pair<double, std::string>> scored;
  for (std::size_t c = 0; c < map.feature_names.size(); ++c) {
    const std::string& name = map.feature_names[c];
    if (name == "Architecture" || name == "Application" || name == "Input Size") {
      continue;
    }
    scored.emplace_back(row.influence[c], name);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> order;
  order.reserve(scored.size());
  for (const auto& [score, name] : scored) order.push_back(name);
  return order;
}

/// KnowledgeBase's two maps and its priority ladder, as the replaced
/// KnowledgeBase(reader, arch) built them: fitted on
/// reader.query(arch)'s non-quarantined samples.
struct ReferenceKnowledgeBase {
  ReferenceKnowledgeBase(const store::StoreReader& reader, const std::string& arch) {
    store::StoreQuery query;
    query.arch = arch;
    const sweep::Dataset clean = reader.query(query).ok_samples();
    pair_influence_ = reference_influence_map(
        clean, Grouping::PerArchApplication, 1.01, {}, nullptr);
    arch_influence_ = reference_influence_map(
        clean, Grouping::PerArchitecture, 1.01, {}, nullptr);
  }

  std::vector<std::string> variable_priority(
      const std::string& app, const std::string& arch) const {
    const std::string pair_key = arch + "/" + app;
    for (const analysis::InfluenceRow& row : pair_influence_.rows) {
      if (row.group == pair_key) return order_from_row(pair_influence_, row);
    }
    for (const analysis::InfluenceRow& row : arch_influence_.rows) {
      if (row.group == arch) return order_from_row(arch_influence_, row);
    }
    return fig3_fallback_order();
  }

  InfluenceMap pair_influence_;
  InfluenceMap arch_influence_;
};

// ---- the comparisons ------------------------------------------------------

constexpr Grouping kGroupings[] = {Grouping::PerApplication,
                                   Grouping::PerArchitecture,
                                   Grouping::PerArchApplication};

void expect_same_map(const InfluenceMap& actual, const InfluenceMap& expected) {
  EXPECT_EQ(actual.feature_names, expected.feature_names);
  ASSERT_EQ(actual.rows.size(), expected.rows.size());
  for (std::size_t i = 0; i < expected.rows.size(); ++i) {
    const InfluenceRow& a = actual.rows[i];
    const InfluenceRow& e = expected.rows[i];
    EXPECT_EQ(a.group, e.group);
    EXPECT_EQ(a.influence, e.influence) << e.group;
    EXPECT_EQ(a.model_accuracy, e.model_accuracy) << e.group;
    EXPECT_EQ(a.positive_share, e.positive_share) << e.group;
    EXPECT_EQ(a.samples, e.samples) << e.group;
  }
}

/// A multi-arch study whose store has quarantined rows and settings split
/// into several runs, with architectures interleaved: rows go out in
/// three passes over blocks of five.
class InfluenceDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ModelRunner runner;
    sweep::SweepHarness harness(runner, 3, 21);
    const sweep::Dataset study =
        harness.run_study(sweep::StudyPlan::mini_plan(3, 24));
    std::vector<sweep::Sample> rows;
    for (std::size_t pass = 0; pass < 3; ++pass) {
      for (std::size_t i = 0; i < study.size(); ++i) {
        if ((i / 5) % 3 != pass) continue;
        sweep::Sample s = study.samples()[i];
        if (i % 7 == 3) {
          s.status = sweep::SampleStatus::Quarantined;
          s.error = "lost";
          s.runtimes.clear();
          s.mean_runtime = 0.0;
          s.speedup = 0.0;
        }
        rows.push_back(std::move(s));
      }
    }
    dataset_ = new sweep::Dataset(std::move(rows));
    dir_ = new std::string(
        (std::filesystem::temp_directory_path() /
         ("omptune_influence_diff_" + std::to_string(::getpid())))
            .string());
    std::filesystem::remove_all(*dir_);
    util::create_directories(*dir_);
    path_ = new std::string(util::path_join(*dir_, "study.omps"));
    store::write_store(*path_, *dataset_);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dataset_;
    delete dir_;
    delete path_;
  }

  static sweep::Dataset* dataset_;
  static std::string* dir_;
  static std::string* path_;
};

sweep::Dataset* InfluenceDifferential::dataset_ = nullptr;
std::string* InfluenceDifferential::dir_ = nullptr;
std::string* InfluenceDifferential::path_ = nullptr;

TEST_F(InfluenceDifferential, StoreHasTheShapesUnderTest) {
  const store::StoreReader reader(*path_);
  EXPECT_GT(dataset_->quarantined_count(), 0u);
  EXPECT_EQ(reader.archs().size(), 3u);
  // Split settings: more index runs than distinct settings.
  EXPECT_GT(reader.setting_count(), best_per_setting(reader).size());
}

TEST_F(InfluenceDifferential, SliceFitsEqualTheDatasetFitAtEveryLaneCount) {
  const store::StoreReader reader(*path_);
  const sweep::Dataset clean = reader.load().ok_samples();
  std::vector<std::string> archs = reader.archs();
  std::size_t fitted = 0;
  for (const unsigned lanes : {1u, 2u, 4u}) {
    const util::ThreadPool pool(lanes);
    for (const Grouping grouping : kGroupings) {
      SCOPED_TRACE(to_string(grouping) + " at " + std::to_string(lanes) + " lanes");
      const InfluenceMap expected =
          reference_influence_map(clean, grouping, 1.01, {}, nullptr);
      fitted += expected.rows.size();
      expect_same_map(influence_map(reader, grouping, 1.01, {}, &pool), expected);
      for (const std::string& arch : archs) {
        SCOPED_TRACE(arch);
        store::StoreQuery query;
        query.arch = arch;
        const InfluenceMap arch_expected = reference_influence_map(
            reader.query(query).ok_samples(), grouping, 1.01, {}, nullptr);
        fitted += arch_expected.rows.size();
        expect_same_map(influence_map(reader, grouping, 1.01, {}, &pool, &arch),
                        arch_expected);
      }
    }
  }
  EXPECT_GT(fitted, 0u);  // not every group degenerate
}

TEST_F(InfluenceDifferential, DatasetFitsEqualTheReplacedFit) {
  // The Dataset overload keeps its contract: every row it is given,
  // quarantined ones included.
  for (const unsigned lanes : {1u, 2u, 4u}) {
    const util::ThreadPool pool(lanes);
    for (const Grouping grouping : kGroupings) {
      SCOPED_TRACE(to_string(grouping) + " at " + std::to_string(lanes) + " lanes");
      expect_same_map(influence_map(*dataset_, grouping, 1.01, {}, &pool),
                      reference_influence_map(*dataset_, grouping, 1.01, {}, nullptr));
    }
  }
}

TEST_F(InfluenceDifferential, KnowledgeBaseAndSnapshotPrioritiesEqualTheReplaced) {
  const store::StoreReader reader(*path_);
  const util::ThreadPool pool(4);
  const auto snapshot = serve::Snapshot::load({*path_}, 1, &pool);
  const std::vector<SettingBest> bests = best_per_setting(reader);
  std::vector<std::string> apps = reader.apps();
  apps.push_back("no-such-app");  // walks the ladder to the arch row
  std::size_t pair_rows = 0;
  for (const std::string& arch : reader.archs()) {
    const ReferenceKnowledgeBase expected(reader, arch);
    pair_rows += expected.pair_influence_.rows.size();
    const core::KnowledgeBase kb(reader, arch, 1.01, &pool);
    const PairBests pairs = best_per_pair(bests, &arch);
    for (const std::string& app : apps) {
      SCOPED_TRACE(app + " on " + arch);
      const std::vector<std::string> priority =
          expected.variable_priority(app, arch);
      EXPECT_EQ(kb.variable_priority(app, arch), priority);
      const std::vector<std::string>* served = snapshot->priority(app, arch);
      ASSERT_NE(served, nullptr);
      EXPECT_EQ(*served, priority);
      const auto best = pairs.find({app, arch});
      if (best == pairs.end()) {
        EXPECT_THROW(kb.best_known_config(app, arch), std::invalid_argument);
      } else {
        EXPECT_EQ(kb.best_known_config(app, arch), best->second.best_config);
        EXPECT_EQ(kb.best_known_speedup(app, arch), best->second.best_speedup);
      }
    }
    // An arch the study never ran falls to the global ordering.
    EXPECT_EQ(kb.variable_priority("cg", "no-such-arch"), fig3_fallback_order());
  }
  EXPECT_GT(pair_rows, 0u);  // some pairs answer from their own row
  const std::vector<std::string>* global = snapshot->priority("cg", "no-such-arch");
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(*global, fig3_fallback_order());
}

}  // namespace
}  // namespace omptune::analysis
