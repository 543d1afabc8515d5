#include "analysis/marginals.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "analysis/variables.hpp"
#include "stats/descriptive.hpp"
#include "store/reader.hpp"
#include "util/thread_pool.hpp"

namespace omptune::analysis {

namespace {

/// Tuned variables per configuration: the pairs of config_variable_values.
constexpr std::size_t kVariables = 7;

/// Each tuned variable's raw value (enum code or integer), in
/// config_variable_values order. Equal raw values name equal value
/// strings and vice versa, so grouping by raw value is grouping by name.
std::array<std::int64_t, kVariables> raw_values(const rt::RtConfig& c) {
  return {static_cast<std::int64_t>(c.places),
          static_cast<std::int64_t>(c.bind),
          static_cast<std::int64_t>(c.schedule),
          static_cast<std::int64_t>(c.library),
          c.blocktime_ms,
          static_cast<std::int64_t>(c.reduction),
          c.align_alloc};
}

/// Speedups grouped by (arch code, variable, raw value), each group in
/// row order. Rows add no strings: a group is named once, from the config
/// of the row that opened it, when the rows are emitted.
class Accumulator {
 public:
  void add(std::size_t arch, const rt::RtConfig& config, double speedup) {
    const std::array<std::int64_t, kVariables> raw = raw_values(config);
    for (std::size_t v = 0; v < kVariables; ++v) {
      group(arch, v, raw[v], config).push_back(speedup);
    }
  }

  /// Append `later`'s speedups after this one's, group by group: merging
  /// partials in row order keeps every group in row order.
  void merge(Accumulator&& later) {
    for (Group& g : later.groups_) {
      std::vector<double>& into = group(g.arch, g.variable, g.raw, g.exemplar);
      if (into.empty()) {
        into = std::move(g.speedups);
      } else {
        into.insert(into.end(), g.speedups.begin(), g.speedups.end());
      }
    }
  }

  /// One row per group, ordered by (arch, variable, value) name.
  std::vector<MarginalRow> rows(const std::vector<std::string>& arch_names,
                                const util::ThreadPool* pool) && {
    std::vector<MarginalRow> named(groups_.size());
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      const Group& g = groups_[i];
      auto [variable, value] = config_variable_values(g.exemplar)[g.variable];
      named[i].arch = arch_names[g.arch];
      named[i].variable = std::move(variable);
      named[i].value = std::move(value);
    }
    std::vector<std::size_t> order(groups_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::tie(named[a].arch, named[a].variable, named[a].value) <
             std::tie(named[b].arch, named[b].variable, named[b].value);
    });
    std::vector<MarginalRow> rows(order.size());
    util::parallel_for(pool, order.size(), 1,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t i = begin; i < end; ++i) {
                           rows[i] = std::move(named[order[i]]);
                           fill_stats(rows[i], std::move(groups_[order[i]].speedups));
                         }
                       });
    return rows;
  }

 private:
  struct Group {
    std::size_t arch = 0;
    std::size_t variable = 0;
    std::int64_t raw = 0;
    rt::RtConfig exemplar;  ///< a config holding `raw`; names the group
    std::vector<double> speedups;
  };

  std::vector<double>& group(std::size_t arch, std::size_t variable,
                             std::int64_t raw, const rt::RtConfig& config) {
    if (arch >= index_.size()) index_.resize(arch + 1);
    std::vector<std::size_t>& candidates = index_[arch][variable];
    for (const std::size_t i : candidates) {
      if (groups_[i].raw == raw) return groups_[i].speedups;
    }
    candidates.push_back(groups_.size());
    groups_.push_back(Group{arch, variable, raw, config, {}});
    return groups_.back().speedups;
  }

  static void fill_stats(MarginalRow& row, std::vector<double> speedups) {
    row.samples = speedups.size();
    row.mean_speedup = stats::mean(speedups);
    std::size_t optimal = 0;
    for (const double s : speedups) optimal += (s > 1.01);
    row.optimal_share =
        static_cast<double>(optimal) / static_cast<double>(speedups.size());
    row.median_speedup = stats::median(speedups);
    row.p95_speedup = stats::quantile(std::move(speedups), 0.95);
  }

  std::vector<Group> groups_;
  /// Per arch code and variable, the indices of its groups (a handful of
  /// values each, so a linear scan beats hashing).
  std::vector<std::array<std::vector<std::size_t>, kVariables>> index_;
};

}  // namespace

std::vector<MarginalRow> value_marginals(const store::StoreReader& reader,
                                         bool per_arch,
                                         const util::ThreadPool* pool) {
  reader.ensure_scan_validated();
  // Arch codes are positions in the store's arch dictionary, which the
  // slices point into.
  const std::vector<std::string>& dictionary = reader.archs();
  // Gather: per-chunk partials merged in chunk (= run, = row) order, so
  // every group's speedup vector matches the serial row-order walk exactly
  // (the mean's summation order is part of the bit-identity contract).
  Accumulator groups = util::parallel_reduce<Accumulator>(
      pool, reader.setting_count(), 1,
      [&](Accumulator& partial, std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const store::SettingSlice slice = reader.setting_slice(r);
          const std::size_t arch =
              per_arch ? static_cast<std::size_t>(slice.arch - dictionary.data())
                       : 0;
          for (std::size_t i = 0; i < slice.rows; ++i) {
            if (slice.quarantined(i)) continue;
            partial.add(arch, slice.config(i), slice.speedup[i]);
          }
        }
      },
      [](Accumulator& into, Accumulator&& from) { into.merge(std::move(from)); });
  return std::move(groups).rows(
      per_arch ? dictionary : std::vector<std::string>{"all"}, pool);
}

MarginalRow best_value_of(const std::vector<MarginalRow>& marginals,
                          const std::string& arch,
                          const std::string& variable) {
  const MarginalRow* best = nullptr;
  for (const MarginalRow& row : marginals) {
    if (row.arch != arch || row.variable != variable) continue;
    if (best == nullptr || row.median_speedup > best->median_speedup) {
      best = &row;
    }
  }
  if (best == nullptr) {
    throw std::invalid_argument("best_value_of: no rows for " + arch + "/" + variable);
  }
  return *best;
}

}  // namespace omptune::analysis
