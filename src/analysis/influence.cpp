#include "analysis/influence.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "ml/scaler.hpp"
#include "store/reader.hpp"
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

/// A run of consecutive rows sharing (arch, app): one setting slice of a
/// store, or one maximal run of a dataset's samples. A group is a list of
/// segments, so its rows stay ascending.
struct Segment {
  const std::string* arch = nullptr;
  const std::string* app = nullptr;
  std::size_t begin = 0;  ///< first sample, or the setting slice's index
  std::size_t end = 0;    ///< one past the last sample (datasets only)
  std::size_t rows = 0;   ///< rows a fit reads from it
};

/// The rows the fits read: every sample of a dataset, or the
/// non-quarantined rows of a store's setting slices (optionally one arch's).
class RowSource {
 public:
  explicit RowSource(const sweep::Dataset& dataset) : dataset_(&dataset) {
    const std::vector<sweep::Sample>& samples = dataset.samples();
    for (std::size_t r = 0; r < samples.size(); ++r) {
      const sweep::Sample& s = samples[r];
      if (r == 0 || s.arch != samples[r - 1].arch ||
          s.app != samples[r - 1].app) {
        segments_.push_back({&s.arch, &s.app, r, r, 0});
      }
      ++segments_.back().end;
      ++segments_.back().rows;
    }
  }

  RowSource(const store::StoreReader& reader, const std::string* arch)
      : reader_(&reader) {
    reader.ensure_scan_validated();
    for (std::size_t i = 0; i < reader.setting_count(); ++i) {
      const store::SettingSlice slice = reader.setting_slice(i);
      if (arch != nullptr && *slice.arch != *arch) continue;
      std::size_t rows = 0;
      for (std::size_t r = 0; r < slice.rows; ++r) rows += !slice.quarantined(r);
      segments_.push_back({slice.arch, slice.app, i, i, rows});
    }
  }

  const std::vector<Segment>& segments() const { return segments_; }

  /// Calls visit(arch, app, input, threads, config, speedup) for every row
  /// of `segment` a fit reads, in row order.
  template <typename Visit>
  void for_each_row(const Segment& segment, Visit&& visit) const {
    if (dataset_ != nullptr) {
      for (std::size_t r = segment.begin; r < segment.end; ++r) {
        const sweep::Sample& s = dataset_->samples()[r];
        visit(s.arch, s.app, s.input, s.threads, s.config, s.speedup);
      }
      return;
    }
    const store::SettingSlice slice = reader_->setting_slice(segment.begin);
    for (std::size_t r = 0; r < slice.rows; ++r) {
      if (slice.quarantined(r)) continue;
      visit(*slice.arch, *slice.app, *slice.input, slice.threads,
            slice.config(r), slice.speedup[r]);
    }
  }

 private:
  const sweep::Dataset* dataset_ = nullptr;
  const store::StoreReader* reader_ = nullptr;
  std::vector<Segment> segments_;
};

/// The group a segment belongs to; it depends on arch and app alone.
std::string group_key(const Segment& segment, Grouping grouping) {
  switch (grouping) {
    case Grouping::PerApplication: return *segment.app;
    case Grouping::PerArchitecture: return *segment.arch;
    case Grouping::PerArchApplication: return *segment.arch + "/" + *segment.app;
  }
  throw std::invalid_argument("group_key: bad Grouping");
}

struct Group {
  std::string key;
  std::vector<const Segment*> segments;  ///< in row order
  std::size_t rows = 0;
};

/// Every group with a row to fit, in first-appearance order.
std::vector<Group> group_segments(const RowSource& source, Grouping grouping) {
  std::vector<Group> groups;
  std::unordered_map<std::string, std::size_t> index;
  for (const Segment& segment : source.segments()) {
    if (segment.rows == 0) continue;
    const auto [it, added] =
        index.try_emplace(group_key(segment, grouping), groups.size());
    if (added) groups.push_back({it->first, {}, 0});
    groups[it->second].segments.push_back(&segment);
    groups[it->second].rows += segment.rows;
  }
  return groups;
}

/// A group's encoded rows in the solver's layout, standardized in place.
ml::ColumnBlocks encode_group(const RowSource& source, const Group& group,
                              const ml::FeatureEncoder& encoder) {
  ml::ColumnBlocks x(group.rows, encoder.num_features());
  std::vector<double> encoded(encoder.num_features());
  std::size_t row = 0;
  for (const Segment* segment : group.segments) {
    source.for_each_row(*segment, [&](const std::string& arch, const std::string& app,
                                      const std::string& input, int threads,
                                      const rt::RtConfig& config, double) {
      encoder.encode_into(arch, app, input, threads, config, encoded.data());
      const std::size_t chunk = row / ml::ColumnBlocks::kChunkRows;
      const std::size_t i = row % ml::ColumnBlocks::kChunkRows;
      for (std::size_t c = 0; c < encoded.size(); ++c) {
        x.column(chunk, c)[i] = encoded[c];
      }
      ++row;
    });
  }
  ml::StandardScaler().fit_transform(x);
  return x;
}

/// The one fitting core behind both influence_map overloads.
InfluenceMap fit_influence(const RowSource& source, Grouping grouping,
                           double label_threshold, ml::LogisticOptions options,
                           const util::ThreadPool* pool) {
  const ml::FeatureEncoder encoder(options_for(grouping));
  InfluenceMap map;
  map.feature_names = encoder.names();

  // Label and encode every group, concurrently; a degenerate group keeps
  // empty features.
  const std::vector<Group> groups = group_segments(source, grouping);
  std::vector<std::vector<int>> labels(groups.size());
  std::vector<std::size_t> positives(groups.size(), 0);
  std::vector<ml::ColumnBlocks> features(groups.size());
  util::parallel_for(
      pool, groups.size(), 1, [&](std::size_t g, std::size_t, std::size_t) {
        labels[g].reserve(groups[g].rows);
        for (const Segment* segment : groups[g].segments) {
          source.for_each_row(*segment, [&](const std::string&, const std::string&,
                                            const std::string&, int,
                                            const rt::RtConfig&, double speedup) {
            labels[g].push_back(ml::FeatureEncoder::label(speedup, label_threshold));
          });
        }
        positives[g] = static_cast<std::size_t>(
            std::count(labels[g].begin(), labels[g].end(), 1));
        if (positives[g] == 0 || positives[g] == labels[g].size()) {
          // Degenerate group: a single class carries no separating signal.
          return;
        }
        features[g] = encode_group(source, groups[g], encoder);
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

}  // namespace

InfluenceMap influence_map(const sweep::Dataset& dataset, Grouping grouping,
                           double label_threshold, ml::LogisticOptions options,
                           const util::ThreadPool* pool) {
  return fit_influence(RowSource(dataset), grouping, label_threshold, options,
                       pool);
}

InfluenceMap influence_map(const store::StoreReader& reader, Grouping grouping,
                           double label_threshold, ml::LogisticOptions options,
                           const util::ThreadPool* pool, const std::string* arch) {
  return fit_influence(RowSource(reader, arch), grouping, label_threshold,
                       options, pool);
}

}  // namespace omptune::analysis
