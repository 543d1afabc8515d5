#include "sweep/sharding.hpp"

#include <map>
#include <stdexcept>

#include "store/reader.hpp"

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

std::optional<std::string> shard_store_mismatch(const StudyPlan& shard,
                                                const store::StoreReader& store) {
  // Rows per index key as delivered; a key may span several index runs.
  std::map<std::string, std::size_t> delivered;
  for (const store::SettingEntry& entry : store.settings()) {
    delivered[entry.arch + "/" + entry.app + "/" + entry.input + "/" +
              std::to_string(entry.threads)] += entry.rows;
  }
  for (const ArchPlan& arch_plan : shard.arch_plans) {
    const arch::CpuArch& cpu = arch::architecture(arch_plan.arch);
    for (std::size_t i = 0; i < arch_plan.settings.size(); ++i) {
      const StudySetting& setting = arch_plan.settings[i];
      const int threads =
          setting.num_threads == 0 ? cpu.cores : setting.num_threads;
      const auto it = delivered.find(cpu.name + "/" + setting.app->name() +
                                     "/" + setting.input.name + "/" +
                                     std::to_string(threads));
      const std::size_t rows = it == delivered.end() ? 0 : it->second;
      if (rows != arch_plan.configs_per_setting[i]) {
        return "setting '" + setting_key(cpu.name, setting) + "' has " +
               std::to_string(rows) + " rows, shard plan expects " +
               std::to_string(arch_plan.configs_per_setting[i]);
      }
      if (it != delivered.end()) delivered.erase(it);
    }
  }
  if (!delivered.empty()) {
    return "store holds setting '" + delivered.begin()->first +
           "', which is not in the shard plan";
  }
  return std::nullopt;
}

}  // namespace omptune::sweep
