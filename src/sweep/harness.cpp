#include "sweep/harness.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/errors.hpp"
#include "util/rng.hpp"

namespace omptune::sweep {

namespace {

using apps::Application;
using apps::SweepMode;

/// Table II sample totals.
constexpr std::size_t kA64fxSamples = 53822;
constexpr std::size_t kMilanSamples = 99707;
constexpr std::size_t kSkylakeSamples = 90230;

bool app_runs_on(const Application& app, arch::ArchId arch) {
  // Sort and Strassen ran only on A64FX; Skylake additionally lacks one app
  // (12 vs 15) — we drop EP there (see harness.hpp).
  if (app.name() == "sort" || app.name() == "strassen") {
    return arch == arch::ArchId::A64FX;
  }
  if (app.name() == "ep" && arch == arch::ArchId::Skylake) return false;
  return true;
}

std::vector<StudySetting> settings_for(const arch::CpuArch& cpu) {
  std::vector<StudySetting> settings;
  for (const Application* app : apps::registry()) {
    if (!app_runs_on(*app, cpu.id)) continue;
    if (app->sweep_mode() == SweepMode::VaryInputSize) {
      for (const apps::InputSize& input : app->input_sizes()) {
        settings.push_back(StudySetting{app, input, 0});
      }
    } else {
      for (const int threads : thread_sweep(cpu)) {
        settings.push_back(StudySetting{app, app->default_input(), threads});
      }
    }
  }
  return settings;
}

std::vector<std::size_t> distribute(std::size_t total, std::size_t buckets,
                                    std::size_t cap) {
  if (buckets == 0) throw std::invalid_argument("distribute: no buckets");
  const std::size_t base = std::min(cap, total / buckets);
  std::size_t remainder = total - base * buckets;
  std::vector<std::size_t> out(buckets, base);
  for (std::size_t i = 0; i < buckets && remainder > 0; ++i) {
    const std::size_t extra = std::min(remainder, cap - out[i]);
    out[i] += extra;
    remainder -= extra;
  }
  return out;
}

ArchPlan arch_plan(arch::ArchId id, std::size_t total_samples) {
  const arch::CpuArch& cpu = arch::architecture(id);
  ArchPlan plan;
  plan.arch = id;
  plan.settings = settings_for(cpu);
  const std::size_t space = ConfigSpace::paper_space(cpu).size();
  plan.configs_per_setting =
      distribute(total_samples, plan.settings.size(), space);
  return plan;
}

}  // namespace

std::string setting_key(const std::string& arch_name,
                        const StudySetting& setting) {
  return arch_name + "/" + setting.app->name() + "/" + setting.input.name +
         "/" + std::to_string(setting.num_threads);
}

std::uint64_t setting_batch_seed(std::uint64_t study_seed,
                                 const arch::CpuArch& cpu,
                                 const StudySetting& setting) {
  return util::hash_combine(
      util::hash_combine(study_seed, util::stable_hash(cpu.name)),
      util::hash_combine(
          util::stable_hash(setting.app->name()),
          util::hash_combine(util::stable_hash(setting.input.name),
                             static_cast<std::uint64_t>(setting.num_threads))));
}

Dataset quarantined_setting_dataset(const arch::CpuArch& cpu,
                                    const StudySetting& setting,
                                    std::size_t config_count, int repetitions,
                                    std::uint64_t study_seed,
                                    const std::string& error) {
  const ConfigSpace space = ConfigSpace::paper_space(cpu);
  const std::uint64_t batch_seed =
      setting_batch_seed(study_seed, cpu, setting);
  const std::vector<rt::RtConfig> configs =
      space.sample(setting.num_threads, config_count, batch_seed);

  Dataset dataset;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Sample s;
    s.arch = cpu.name;
    s.app = setting.app->name();
    s.suite = setting.app->suite();
    s.kind = apps::to_string(setting.app->kind());
    s.input = setting.input.name;
    s.config = configs[i];
    s.threads = configs[i].effective_num_threads(cpu);
    s.is_default = (i == 0);
    s.status = SampleStatus::Quarantined;
    s.error = error;
    s.runtimes.assign(static_cast<std::size_t>(repetitions), 0.0);
    dataset.add(std::move(s));
  }
  dataset.publish();
  return dataset;
}

std::size_t ArchPlan::total_samples() const {
  std::size_t total = 0;
  for (const std::size_t c : configs_per_setting) total += c;
  return total;
}

StudyPlan StudyPlan::paper_plan() {
  StudyPlan plan;
  plan.arch_plans.push_back(arch_plan(arch::ArchId::A64FX, kA64fxSamples));
  plan.arch_plans.push_back(arch_plan(arch::ArchId::Milan, kMilanSamples));
  plan.arch_plans.push_back(arch_plan(arch::ArchId::Skylake, kSkylakeSamples));
  return plan;
}

StudyPlan StudyPlan::mini_plan(std::size_t apps_per_arch,
                               std::size_t configs_per_setting) {
  StudyPlan plan;
  for (const arch::ArchId id :
       {arch::ArchId::A64FX, arch::ArchId::Milan, arch::ArchId::Skylake}) {
    const arch::CpuArch& cpu = arch::architecture(id);
    ArchPlan arch_plan;
    arch_plan.arch = id;
    std::size_t taken = 0;
    for (const StudySetting& setting : settings_for(cpu)) {
      // One setting per distinct app.
      const bool seen = std::any_of(
          arch_plan.settings.begin(), arch_plan.settings.end(),
          [&setting](const StudySetting& s) { return s.app == setting.app; });
      if (seen) continue;
      arch_plan.settings.push_back(setting);
      arch_plan.configs_per_setting.push_back(configs_per_setting);
      if (++taken == apps_per_arch) break;
    }
    plan.arch_plans.push_back(std::move(arch_plan));
  }
  return plan;
}

SweepHarness::SweepHarness(sim::Runner& runner, int repetitions,
                           std::uint64_t seed)
    : runner_(&runner), repetitions_(repetitions), seed_(seed) {
  if (repetitions <= 0) {
    throw std::invalid_argument("SweepHarness: repetitions must be > 0");
  }
}

Dataset SweepHarness::run_setting(const arch::CpuArch& cpu,
                                  const StudySetting& setting,
                                  std::size_t config_count,
                                  ResiliencePolicy* policy) {
  const ConfigSpace space = ConfigSpace::paper_space(cpu);
  const std::uint64_t batch_seed = setting_batch_seed(seed_, cpu, setting);

  const std::vector<rt::RtConfig> configs =
      space.sample(setting.num_threads, config_count, batch_seed);

  Dataset dataset;
  // The paper's batching: all configurations of a setting are explored
  // iteratively within the batch, repetition by repetition, preserving
  // relative performance under slow cluster drift.
  std::vector<Sample> samples(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Sample& s = samples[i];
    s.arch = cpu.name;
    s.app = setting.app->name();
    s.suite = setting.app->suite();
    s.kind = apps::to_string(setting.app->kind());
    s.input = setting.input.name;
    s.config = configs[i];
    s.threads = configs[i].effective_num_threads(cpu);
    s.is_default = (i == 0);  // ConfigSpace::sample pins the default first
  }
  for (int rep = 0; rep < repetitions_; ++rep) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      Sample& s = samples[i];
      if (s.is_quarantined()) continue;  // one bad repetition voids the mean
      if (policy == nullptr) {
        s.runtimes.push_back(runner_->run(*setting.app, setting.input, cpu,
                                          configs[i], batch_seed, rep, i));
        if (sample_observer_) sample_observer_();
        continue;
      }
      const MeasureOutcome outcome =
          policy->measure(*runner_, *setting.app, setting.input, cpu,
                          configs[i], batch_seed, rep, i);
      if (sample_observer_) sample_observer_();
      s.attempts = std::max(s.attempts, outcome.attempts);
      if (outcome.status == SampleStatus::Quarantined) {
        s.status = SampleStatus::Quarantined;
        s.error = outcome.error;
      } else {
        s.runtimes.push_back(outcome.runtime);
        if (outcome.status == SampleStatus::Retried &&
            s.status == SampleStatus::Ok) {
          s.status = SampleStatus::Retried;
          s.error = outcome.error;
        }
      }
    }
  }

  // The paper's speedups are defined against the setting's default
  // configuration: if the default itself quarantined, no sample of the
  // setting can be enriched, so the whole batch is quarantined.
  if (samples.front().is_quarantined()) {
    for (Sample& s : samples) {
      if (!s.is_quarantined()) {
        s.status = SampleStatus::Quarantined;
        s.error = "setting default quarantined: " + samples.front().error;
      }
    }
  }

  // Quarantined samples carry placeholder runtimes so the CSV schema stays
  // rectangular (and loadable: the loader rejects non-finite cells).
  for (Sample& s : samples) {
    if (s.is_quarantined()) {
      s.runtimes.assign(static_cast<std::size_t>(repetitions_), 0.0);
      s.mean_runtime = 0.0;
    }
  }

  // Averaging across repetitions mitigates the measured variation (paper
  // IV-C), then speedup = default mean / config mean.
  for (Sample& s : samples) {
    if (s.is_quarantined()) continue;
    double sum = 0.0;
    for (const double r : s.runtimes) sum += r;
    s.mean_runtime = sum / static_cast<double>(s.runtimes.size());
  }
  const bool default_ok = !samples.front().is_quarantined();
  const double default_mean = default_ok ? samples.front().mean_runtime : 0.0;
  for (Sample& s : samples) {
    s.default_runtime = default_mean;
    s.speedup = s.is_quarantined() ? 0.0 : default_mean / s.mean_runtime;
    dataset.add(std::move(s));
  }
  // Every batch is born published: journaled or not, in this process or a
  // worker's, collection hands on the values a store read-back holds.
  dataset.publish();
  return dataset;
}

Dataset SweepHarness::run_study(
    const StudyPlan& plan,
    const std::function<void(const std::string&)>& progress) {
  StudyRunOptions options;
  options.progress = progress;
  return run_study(plan, options);
}

Dataset SweepHarness::run_study(const StudyPlan& plan,
                                const StudyRunOptions& options) {
  std::unique_ptr<StudyJournal> journal;
  if (!options.journal_dir.empty()) {
    journal = std::make_unique<StudyJournal>(options.journal_dir);
  }
  ResiliencePolicy* policy = nullptr;
  if (options.resilient) {
    last_policy_ = std::make_unique<ResiliencePolicy>(options.resilience);
    policy = last_policy_.get();
  }

  Dataset dataset;
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    const arch::CpuArch& cpu = arch::architecture(arch_plan.arch);
    for (std::size_t i = 0; i < arch_plan.settings.size(); ++i) {
      const StudySetting& setting = arch_plan.settings[i];
      const std::size_t config_count = arch_plan.configs_per_setting[i];
      const std::string key = setting_key(cpu.name, setting);

      if (journal && journal->discard_legacy(key) && options.progress) {
        options.progress(key + " legacy CSV journal entry discarded, "
                               "recollecting");
      }
      bool resumed = false;
      if (journal && options.resume && journal->contains(key)) {
        try {
          dataset.append(journal->load(key, config_count));
          resumed = true;
        } catch (const util::DataCorruptionError& error) {
          // A garbled or short entry is discarded and the setting
          // recollected — never silently trusted.
          journal->discard(key);
          if (options.progress) {
            options.progress(key + " journal entry invalid, recollecting (" +
                            error.what() + ")");
          }
        }
      }
      if (!resumed) {
        Dataset batch = run_setting(cpu, setting, config_count, policy);
        // Write-ahead: persist before the study depends on the data. A
        // journal append that fails (ENOSPC, EIO...) degrades durability —
        // a later crash would recollect this setting — but the batch is in
        // memory, so the study continues.
        if (journal) {
          try {
            journal->record(key, batch);
          } catch (const util::StorageError& error) {
            ++journal_append_failures_;
            if (options.progress) {
              options.progress(key +
                               " journal append failed, durability degraded "
                               "(study continues): " +
                               error.what());
            }
          }
        }
        dataset.append(std::move(batch));
      }
      if (options.progress) {
        options.progress(key + " -> " + std::to_string(dataset.size()) +
                         " samples" + (resumed ? " (resumed)" : ""));
      }
    }
  }
  return dataset;
}

}  // namespace omptune::sweep
