#pragma once

// The data-collection harness (paper IV-B): batches repeated runs of every
// configuration for each (architecture, application, setting), averages the
// repetitions, and enriches samples with the speedup over the setting's
// default configuration.
//
// StudyPlan::paper_plan() reproduces the paper's roster exactly:
//  - NPB and BOTS apps sweep the input sizes at the architecture's full
//    thread count;
//  - proxy apps sweep the thread counts at the default input;
//  - Sort and Strassen run only on A64FX (cluster traffic kept them off the
//    X86 machines), and one further app is absent from Skylake (the paper
//    reports 12 apps there without naming the third omission; this
//    reproduction drops EP, the app with the least tuning potential);
//  - per-setting configuration counts are chosen so the per-architecture
//    dataset sizes match Table II exactly (53822 / 99707 / 90230).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/application.hpp"
#include "arch/cpu_arch.hpp"
#include "sim/executor.hpp"
#include "sweep/config_space.hpp"
#include "sweep/dataset.hpp"
#include "sweep/journal.hpp"
#include "sweep/resilience.hpp"

namespace omptune::sweep {

/// One experiment setting: a fixed (app, input, thread count) whose whole
/// configuration space is explored iteratively in one batch (preserving
/// relative performance within the batch, per the paper).
struct StudySetting {
  const apps::Application* app = nullptr;
  apps::InputSize input;
  int num_threads = 0;  ///< 0 = architecture default (all cores)
};

/// Canonical identity of a setting: "arch/app/input/threads". Used as the
/// journal key and the sharding merge key — and, crucially, as the basis of
/// the per-setting RNG seed, so a setting collects identical samples
/// regardless of where in a (possibly resumed or sharded) study it runs.
std::string setting_key(const std::string& arch_name,
                        const StudySetting& setting);

/// The deterministic per-setting batch seed derived from the study seed and
/// the setting identity. Shared by collection (run_setting) and by the
/// supervisor's quarantine synthesis, which must enumerate the exact
/// configurations the setting would have sampled.
std::uint64_t setting_batch_seed(std::uint64_t study_seed,
                                 const arch::CpuArch& cpu,
                                 const StudySetting& setting);

/// The all-quarantined placeholder dataset for a setting whose collection
/// cannot proceed at all — e.g. one that keeps killing its worker process.
/// Shape-compatible with run_setting's output (same configurations, sample
/// count and CSV schema, in the published form), carrying `error` as the
/// quarantine evidence on every sample.
Dataset quarantined_setting_dataset(const arch::CpuArch& cpu,
                                    const StudySetting& setting,
                                    std::size_t config_count, int repetitions,
                                    std::uint64_t study_seed,
                                    const std::string& error);

/// Per-architecture slice of the study.
struct ArchPlan {
  arch::ArchId arch;
  std::vector<StudySetting> settings;
  /// Configurations sampled per setting (front-loaded remainder so the
  /// total matches the Table II sample count exactly).
  std::vector<std::size_t> configs_per_setting;

  std::size_t total_samples() const;
};

struct StudyPlan {
  std::vector<ArchPlan> arch_plans;

  /// The paper's plan (Table II totals).
  static StudyPlan paper_plan();

  /// A miniature plan for tests/examples: `apps_per_arch` applications,
  /// `configs_per_setting` configurations, first input size / smallest
  /// thread count only.
  static StudyPlan mini_plan(std::size_t apps_per_arch,
                             std::size_t configs_per_setting);
};

/// Fault-tolerance knobs for run_study. Default-constructed options behave
/// exactly like the bare overload: no journal, no resume, direct runner
/// calls.
struct StudyRunOptions {
  /// Journal directory; empty disables journaling. With a journal, each
  /// completed setting is persisted via an atomic write before the study
  /// moves on (write-ahead: a crash loses at most the in-flight setting).
  std::string journal_dir;
  /// Replay settings already completed in the journal instead of
  /// recollecting them. Because per-setting seeds derive from setting_key,
  /// the resumed dataset is bit-identical to an uninterrupted run.
  bool resume = false;
  /// Guard every Runner call with retry/timeout/quarantine handling. When
  /// false, runner exceptions propagate (the seed behaviour), and a
  /// journaled run stops with StudyJournal::record's std::invalid_argument
  /// on a setting with a non-finite result, which no journal entry can
  /// hold.
  bool resilient = false;
  ResilienceOptions resilience;
  std::function<void(const std::string&)> progress;
};

/// Runs a plan against a Runner and produces the dataset.
class SweepHarness {
 public:
  /// `repetitions`: runtimes collected per configuration (paper: 4, paired
  /// R0..R3 in the Wilcoxon analysis).
  explicit SweepHarness(sim::Runner& runner, int repetitions = 4,
                        std::uint64_t seed = 0x0417D5EEDull);

  /// Sweep one setting: every sampled configuration, `repetitions` times.
  /// With a `policy`, failed measurements are retried and finally
  /// quarantined (status column) rather than thrown; if the setting's
  /// default configuration quarantines, the whole setting is quarantined,
  /// since the paper's speedups are defined against that default. The
  /// batch is returned in its published form (Dataset::publish).
  Dataset run_setting(const arch::CpuArch& cpu, const StudySetting& setting,
                      std::size_t config_count,
                      ResiliencePolicy* policy = nullptr);

  /// Run a whole plan. `progress` (optional) is called after each setting.
  Dataset run_study(const StudyPlan& plan,
                    const std::function<void(const std::string&)>& progress = {});

  /// Run a whole plan with fault tolerance (journaling / resume /
  /// retry+quarantine). With `options.resilient`, no runner failure escapes:
  /// exhausted samples are quarantined and the study completes
  /// (util::StudyAbort — simulated process death — still escapes, by
  /// design). A journal entry that fails validation on resume is discarded
  /// and its setting recollected.
  Dataset run_study(const StudyPlan& plan, const StudyRunOptions& options);

  /// The policy of the last resilient run_study (quarantine list, retry
  /// totals); nullptr before the first resilient run.
  const ResiliencePolicy* last_policy() const { return last_policy_.get(); }

  /// Journal appends that failed with a util::StorageError across every
  /// run_study on this harness. Each one means the affected setting lost
  /// write-ahead durability (a crash would recollect it) but the study
  /// continued with the batch held in memory.
  std::size_t journal_append_failures() const {
    return journal_append_failures_;
  }

  /// Observer invoked after every completed measurement (every Runner call
  /// that produced a sample value, successful or quarantined). The process
  /// worker uses it to emit liveness heartbeats mid-setting and as the
  /// deterministic injection point for process-level chaos; the observer
  /// may therefore never return (a wedged worker IS the observer not
  /// returning). Pass an empty function to remove.
  void set_sample_observer(std::function<void()> observer) {
    sample_observer_ = std::move(observer);
  }

  int repetitions() const { return repetitions_; }

 private:
  sim::Runner* runner_;
  int repetitions_;
  std::uint64_t seed_;
  std::unique_ptr<ResiliencePolicy> last_policy_;
  std::function<void()> sample_observer_;
  std::size_t journal_append_failures_ = 0;
};

}  // namespace omptune::sweep
