#include "analysis/influence.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "ml/scaler.hpp"
#include "util/thread_pool.hpp"

namespace omptune::analysis {

std::string to_string(Grouping grouping) {
  switch (grouping) {
    case Grouping::PerApplication: return "per-application";
    case Grouping::PerArchitecture: return "per-architecture";
    case Grouping::PerArchApplication: return "per-architecture-application";
  }
  throw std::invalid_argument("to_string: bad Grouping");
}

double InfluenceMap::at(const std::string& group,
                        const std::string& feature) const {
  const auto feature_it =
      std::find(feature_names.begin(), feature_names.end(), feature);
  if (feature_it == feature_names.end()) {
    throw std::invalid_argument("InfluenceMap::at: unknown feature '" + feature + "'");
  }
  const std::size_t col =
      static_cast<std::size_t>(feature_it - feature_names.begin());
  for (const InfluenceRow& row : rows) {
    if (row.group == group) return row.influence.at(col);
  }
  throw std::invalid_argument("InfluenceMap::at: unknown group '" + group + "'");
}

namespace {

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

}  // namespace

InfluenceMap influence_map(const sweep::Dataset& dataset, Grouping grouping,
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

}  // namespace omptune::analysis
