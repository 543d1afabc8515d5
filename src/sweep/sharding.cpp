#include "sweep/sharding.hpp"

#include <map>
#include <set>
#include <stdexcept>

#include "util/errors.hpp"

namespace omptune::sweep {

StudyPlan shard_plan(const StudyPlan& plan, std::size_t index, std::size_t count) {
  if (count == 0 || index >= count) {
    throw std::invalid_argument("shard_plan: need index < count, count > 0");
  }
  StudyPlan shard;
  std::size_t position = 0;  // global setting position across architectures
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    ArchPlan kept;
    kept.arch = arch_plan.arch;
    for (std::size_t i = 0; i < arch_plan.settings.size(); ++i, ++position) {
      if (position % count != index) continue;
      kept.settings.push_back(arch_plan.settings[i]);
      kept.configs_per_setting.push_back(arch_plan.configs_per_setting[i]);
    }
    if (!kept.settings.empty()) shard.arch_plans.push_back(std::move(kept));
  }
  return shard;
}

namespace {

std::string sample_key(const Sample& sample) {
  // The sample stores the resolved team size; recover the plan's
  // num_threads: VaryInputSize settings use 0 (all cores).
  const auto& cpu = arch::architecture(arch::arch_from_string(sample.arch));
  const int plan_threads = sample.threads == cpu.cores &&
                                   apps::find_application(sample.app).sweep_mode() ==
                                       apps::SweepMode::VaryInputSize
                               ? 0
                               : sample.threads;
  return sample.arch + "/" + sample.app + "/" + sample.input + "/" +
         std::to_string(plan_threads);
}

/// One shard sample plus where it came from, so merge errors can name the
/// shard and the offending sample's position within it.
struct Contribution {
  const Sample* sample = nullptr;
  std::size_t shard = 0;   ///< index into `shards`
  std::size_t offset = 0;  ///< sample index within its shard dataset
};

std::size_t dedupe_bucket(std::vector<Contribution>& bucket) {
  // Collapse repeated identities within one setting's bucket under the
  // Deduper rule: the best-status occurrence at the first occurrence's
  // position — Ok over Retried over Quarantined, never first-wins.
  Deduper deduper;
  std::vector<Contribution> kept;
  const auto key_at = [&](std::size_t p) { return SampleKey(*kept[p].sample); };
  for (const Contribution& entry : bucket) {
    std::size_t position = kept.size();
    switch (deduper.admit(SampleKey(*entry.sample), entry.sample->status,
                          position, key_at)) {
      case Deduper::Verdict::Added: kept.push_back(entry); break;
      case Deduper::Verdict::Replaces: kept[position] = entry; break;
      case Deduper::Verdict::Dropped: break;
    }
  }
  bucket = std::move(kept);
  return deduper.report().duplicates;
}

std::string shard_label(const MergeOptions& options, std::size_t shard) {
  if (shard < options.shard_names.size() && !options.shard_names[shard].empty()) {
    return options.shard_names[shard];
  }
  return "shard " + std::to_string(shard);
}

std::string contributors(const MergeOptions& options,
                         const std::vector<Contribution>& bucket) {
  std::set<std::size_t> seen;
  std::string out;
  for (const Contribution& entry : bucket) {
    if (!seen.insert(entry.shard).second) continue;
    if (!out.empty()) out += ", ";
    out += shard_label(options, entry.shard);
  }
  return out;
}

Dataset merge_shards_impl(const StudyPlan& plan,
                          const std::vector<Dataset>& shards,
                          MergeReport* report, const MergeOptions* options) {
  // Bucket every shard's samples by setting, remembering provenance.
  std::map<std::string, std::vector<Contribution>> buckets;
  for (std::size_t shard = 0; shard < shards.size(); ++shard) {
    const auto& samples = shards[shard].samples();
    for (std::size_t offset = 0; offset < samples.size(); ++offset) {
      buckets[sample_key(samples[offset])].push_back(
          Contribution{&samples[offset], shard, offset});
    }
  }

  if (report) *report = MergeReport{};
  Dataset merged;
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    const std::string arch_name = arch::architecture(arch_plan.arch).name;
    for (std::size_t i = 0; i < arch_plan.settings.size(); ++i) {
      const std::string key = setting_key(arch_name, arch_plan.settings[i]);
      const auto it = buckets.find(key);
      if (it == buckets.end()) {
        const std::string message = "merge_shards: setting '" + key +
                                    "' missing from all " +
                                    std::to_string(shards.size()) + " shards";
        if (!options) throw std::invalid_argument(message);
        if (options->lenient) {
          if (options->warn) options->warn(message + " — skipped");
          if (report) {
            ++report->skipped_settings;
            report->skipped.push_back(SkippedSetting{
                key,
                "missing from all " + std::to_string(shards.size()) + " shards",
                ""});
          }
          continue;
        }
        throw util::DataCorruptionError("<shard merge>", 0, message);
      }
      const std::size_t duplicates = dedupe_bucket(it->second);
      if (report) report->duplicate_samples += duplicates;
      // A partially-duplicated setting (extra configs the plan never asked
      // for, or missing ones) still fails the size check below.
      if (it->second.size() != arch_plan.configs_per_setting[i]) {
        const std::string message =
            "merge_shards: setting '" + key + "' has " +
            std::to_string(it->second.size()) + " samples, plan expects " +
            std::to_string(arch_plan.configs_per_setting[i]);
        if (!options) throw std::invalid_argument(message);
        if (options->lenient) {
          if (options->warn) {
            options->warn(message + " (from " + contributors(*options, it->second) +
                          ") — skipped");
          }
          if (report) {
            ++report->skipped_settings;
            report->skipped.push_back(SkippedSetting{
                key,
                std::to_string(it->second.size()) + " samples, plan expects " +
                    std::to_string(arch_plan.configs_per_setting[i]),
                contributors(*options, it->second)});
          }
          continue;
        }
        const Contribution& first = it->second.front();
        throw util::DataCorruptionError(
            shard_label(*options, first.shard), first.offset,
            message + " (contributed by " + contributors(*options, it->second) +
                ")");
      }
      std::size_t quarantined = 0;
      for (const Contribution& entry : it->second) {
        if (entry.sample->is_quarantined()) ++quarantined;
        merged.add(*entry.sample);
      }
      if (report) {
        report->total_samples += it->second.size();
        report->quarantined_samples += quarantined;
        if (quarantined > 0) {
          report->quarantined_settings.push_back(
              QuarantinedSetting{key, quarantined, it->second.size()});
        }
      }
    }
  }
  return merged;
}

}  // namespace

Dataset merge_shards(const StudyPlan& plan, const std::vector<Dataset>& shards,
                     MergeReport* report) {
  return merge_shards_impl(plan, shards, report, nullptr);
}

Dataset merge_shards(const StudyPlan& plan, const std::vector<Dataset>& shards,
                     MergeReport* report, const MergeOptions& options) {
  return merge_shards_impl(plan, shards, report, &options);
}

}  // namespace omptune::sweep
