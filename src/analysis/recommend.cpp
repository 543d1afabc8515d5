#include "analysis/recommend.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/variables.hpp"
#include "stats/descriptive.hpp"
#include "store/reader.hpp"
#include "util/thread_pool.hpp"

namespace omptune::analysis {

namespace {

using VariableValue = std::pair<std::string, std::string>;

/// Value frequencies of one (app, arch) group: overall and among near-best
/// samples. Pure counts, so the scan's merge order cannot affect them.
struct ArchCounts {
  std::map<VariableValue, std::size_t> overall, best;
  std::size_t n_best = 0;
  std::size_t n_total = 0;
};

/// Assemble recommendations from per-arch counts, the back half of
/// recommend_for_app. `archs` is in first-appearance order.
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

}  // namespace

std::vector<Recommendation> recommend_for_app(const store::StoreReader& store,
                                              const std::string& app,
                                              double tolerance,
                                              double min_lift,
                                              const util::ThreadPool* pool) {
  store.ensure_scan_validated();
  const std::size_t runs = store.setting_count();

  // Pass 1: per-(arch, input, threads) best speedup over every sample of
  // the app — quarantined placeholders included (their speedup of 0 never
  // wins, and never passes the >1.01 gate below either). Also collects the
  // architectures in run (= row) order.
  struct Pass1 {
    std::map<std::string, double> setting_best;
    std::vector<std::string> arch_order;
  };
  const auto add_arch = [](std::vector<std::string>& order,
                           const std::string& arch) {
    if (std::find(order.begin(), order.end(), arch) == order.end()) {
      order.push_back(arch);
    }
  };
  Pass1 pass1 = util::parallel_reduce<Pass1>(
      pool, runs, 1,
      [&](Pass1& partial, std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const store::SettingSlice slice = store.setting_slice(r);
          if (*slice.app != app) continue;
          const std::string key = *slice.arch + "/" + *slice.input + "/" +
                                  std::to_string(slice.threads);
          double& best = partial.setting_best[key];
          for (std::size_t i = 0; i < slice.rows; ++i) {
            best = std::max(best, slice.speedup[i]);
          }
          add_arch(partial.arch_order, *slice.arch);
        }
      },
      [&](Pass1& into, Pass1&& from) {
        for (const auto& [key, best] : from.setting_best) {
          double& dst = into.setting_best[key];
          dst = std::max(dst, best);
        }
        for (const std::string& arch : from.arch_order) {
          add_arch(into.arch_order, arch);
        }
      });

  // Pass 2 classifies each sample against the complete pass-1 map — an
  // inherent barrier between the two scans. All integer counts, merged by
  // addition: scheduling cannot perturb them.
  using ByArch = std::map<std::string, ArchCounts>;
  ByArch by_arch = util::parallel_reduce<ByArch>(
      pool, runs, 1,
      [&](ByArch& partial, std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const store::SettingSlice slice = store.setting_slice(r);
          if (*slice.app != app) continue;
          const std::string key = *slice.arch + "/" + *slice.input + "/" +
                                  std::to_string(slice.threads);
          const double best = pass1.setting_best.at(key);
          ArchCounts& counts = partial[*slice.arch];
          for (std::size_t i = 0; i < slice.rows; ++i) {
            ++counts.n_total;
            const bool near_best = slice.speedup[i] >= best * (1.0 - tolerance) &&
                                   slice.speedup[i] > 1.01;
            for (const auto& vv : config_variable_values(slice.config(i))) {
              ++counts.overall[vv];
              if (near_best) ++counts.best[vv];
            }
            if (near_best) ++counts.n_best;
          }
        }
      },
      [](ByArch& into, ByArch&& from) {
        for (auto& [arch, counts] : from) {
          ArchCounts& dst = into[arch];
          dst.n_total += counts.n_total;
          dst.n_best += counts.n_best;
          for (const auto& [vv, c] : counts.overall) dst.overall[vv] += c;
          for (const auto& [vv, c] : counts.best) dst.best[vv] += c;
        }
      });

  return recommendations_from_counts(app, pass1.arch_order, by_arch, min_lift);
}

std::vector<WorstTrend> worst_trends(const sweep::Dataset& dataset,
                                     double decile) {
  std::vector<double> speedups;
  speedups.reserve(dataset.size());
  for (const sweep::Sample& s : dataset.samples()) speedups.push_back(s.speedup);
  const double cutoff = stats::quantile(speedups, decile);

  struct Condition {
    std::string name;
    bool (*test)(const sweep::Sample&);
  };
  static const Condition kConditions[] = {
      {"OMP_PROC_BIND=master with >= half the cores as threads",
       [](const sweep::Sample& s) {
         return s.config.bind == arch::BindKind::Master &&
                s.threads * 2 >= arch::architecture(arch::arch_from_string(s.arch)).cores;
       }},
      {"OMP_PROC_BIND=master",
       [](const sweep::Sample& s) {
         return s.config.bind == arch::BindKind::Master;
       }},
      {"OMP_PROC_BIND=close",
       [](const sweep::Sample& s) {
         return s.config.bind == arch::BindKind::Close;
       }},
      {"OMP_PROC_BIND=spread",
       [](const sweep::Sample& s) {
         return s.config.bind == arch::BindKind::Spread;
       }},
      {"KMP_BLOCKTIME=0 (passive waiting)",
       [](const sweep::Sample& s) { return s.config.blocktime_ms == 0; }},
  };

  std::vector<WorstTrend> trends;
  const auto n = static_cast<double>(dataset.size());
  for (const Condition& condition : kConditions) {
    std::size_t in_worst = 0, worst_total = 0, overall = 0;
    for (const sweep::Sample& s : dataset.samples()) {
      const bool matches = condition.test(s);
      overall += matches;
      if (s.speedup <= cutoff) {
        ++worst_total;
        in_worst += matches;
      }
    }
    WorstTrend trend;
    trend.condition = condition.name;
    trend.share_in_worst =
        worst_total > 0 ? static_cast<double>(in_worst) / worst_total : 0.0;
    trend.share_overall = static_cast<double>(overall) / n;
    trend.lift = trend.share_overall > 0.0
                     ? trend.share_in_worst / trend.share_overall
                     : 0.0;
    trends.push_back(trend);
  }
  std::sort(trends.begin(), trends.end(),
            [](const WorstTrend& a, const WorstTrend& b) { return a.lift > b.lift; });
  return trends;
}

}  // namespace omptune::analysis
