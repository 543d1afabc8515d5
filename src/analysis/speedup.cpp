#include "analysis/speedup.hpp"

#include <algorithm>
#include <map>

#include "stats/descriptive.hpp"
#include "store/reader.hpp"
#include "util/thread_pool.hpp"

namespace omptune::analysis {

namespace {

std::string setting_key(const std::string& arch, const std::string& app,
                        const std::string& input, int threads) {
  return arch + "/" + app + "/" + input + "/" + std::to_string(threads);
}

/// Best non-quarantined row of one index run (run-relative), strictly-greater
/// replacement so the earliest of tied rows wins.
struct RunBest {
  bool any = false;
  double speedup = 0;
  std::size_t row = 0;
};

RunBest run_best(const store::SettingSlice& slice) {
  RunBest best;
  for (std::size_t i = 0; i < slice.rows; ++i) {
    if (slice.quarantined(i)) continue;
    if (!best.any || slice.speedup[i] > best.speedup) {
      best.any = true;
      best.speedup = slice.speedup[i];
      best.row = i;
    }
  }
  return best;
}

}  // namespace

std::vector<SettingBest> best_per_setting(const store::StoreReader& reader,
                                          const util::ThreadPool* pool) {
  reader.ensure_scan_validated();
  const std::size_t runs = reader.setting_count();
  std::vector<RunBest> bests(runs);
  util::parallel_for(pool, runs, 1,
                     [&](std::size_t begin, std::size_t end, std::size_t) {
                       for (std::size_t r = begin; r < end; ++r) {
                         bests[r] = run_best(reader.setting_slice(r));
                       }
                     });
  // Fold runs sharing a key in run (= first-appearance) order. Strictly-
  // greater replacement again, so an earlier run keeps a tie: the best is
  // the earliest row holding the setting's maximum.
  std::vector<SettingBest> out;
  std::map<std::string, std::size_t> index_of;
  for (std::size_t r = 0; r < runs; ++r) {
    if (!bests[r].any) continue;
    const store::SettingSlice slice = reader.setting_slice(r);
    const std::string key =
        setting_key(*slice.arch, *slice.app, *slice.input, slice.threads);
    const auto it = index_of.find(key);
    if (it == index_of.end()) {
      index_of.emplace(key, out.size());
      SettingBest best;
      best.arch = *slice.arch;
      best.app = *slice.app;
      best.input = *slice.input;
      best.threads = slice.threads;
      best.best_speedup = bests[r].speedup;
      best.best_config = slice.config(bests[r].row);
      out.push_back(std::move(best));
    } else if (bests[r].speedup > out[it->second].best_speedup) {
      out[it->second].best_speedup = bests[r].speedup;
      out[it->second].best_config = slice.config(bests[r].row);
    }
  }
  return out;
}

PairBests best_per_pair(const std::vector<SettingBest>& bests,
                        const std::string* arch) {
  PairBests out;
  for (const SettingBest& best : bests) {
    if (arch != nullptr && best.arch != *arch) continue;
    const auto [it, inserted] = out.try_emplace({best.app, best.arch}, best);
    if (!inserted && best.best_speedup > it->second.best_speedup) {
      it->second = best;
    }
  }
  return out;
}

std::vector<ArchAppRange> speedup_ranges_by_arch(
    const std::vector<SettingBest>& bests) {
  std::map<std::pair<std::string, std::string>, ArchAppRange> ranges;
  std::vector<std::pair<std::string, std::string>> order;
  for (const SettingBest& b : bests) {
    const auto key = std::make_pair(b.app, b.arch);
    auto it = ranges.find(key);
    if (it == ranges.end()) {
      order.push_back(key);
      ranges[key] = ArchAppRange{b.app, b.arch, b.best_speedup, b.best_speedup};
    } else {
      it->second.lo = std::min(it->second.lo, b.best_speedup);
      it->second.hi = std::max(it->second.hi, b.best_speedup);
    }
  }
  std::vector<ArchAppRange> out;
  out.reserve(order.size());
  for (const auto& key : order) out.push_back(ranges.at(key));
  std::sort(out.begin(), out.end(), [](const ArchAppRange& a, const ArchAppRange& b) {
    return a.app != b.app ? a.app < b.app : a.arch < b.arch;
  });
  return out;
}

std::vector<AppRange> speedup_ranges_by_app(
    const std::vector<SettingBest>& bests) {
  std::map<std::string, AppRange> ranges;
  for (const SettingBest& b : bests) {
    auto it = ranges.find(b.app);
    if (it == ranges.end()) {
      ranges[b.app] = AppRange{b.app, b.best_speedup, b.best_speedup};
    } else {
      it->second.lo = std::min(it->second.lo, b.best_speedup);
      it->second.hi = std::max(it->second.hi, b.best_speedup);
    }
  }
  std::vector<AppRange> out;
  out.reserve(ranges.size());
  for (const auto& [app, range] : ranges) out.push_back(range);  // sorted by app
  return out;
}

std::vector<ArchUpshot> upshot_by_arch(const std::vector<SettingBest>& bests) {
  std::map<std::string, std::vector<double>> per_arch;
  std::vector<std::string> order;
  for (const SettingBest& b : bests) {
    if (per_arch.find(b.arch) == per_arch.end()) order.push_back(b.arch);
    per_arch[b.arch].push_back(b.best_speedup);
  }
  std::vector<ArchUpshot> out;
  for (const std::string& arch : order) {
    std::vector<double>& values = per_arch.at(arch);
    ArchUpshot upshot;
    upshot.arch = arch;
    upshot.min_best = stats::min_value(values);
    upshot.median_best = stats::median(values);
    upshot.max_best = stats::max_value(values);
    out.push_back(upshot);
  }
  return out;
}

}  // namespace omptune::analysis
