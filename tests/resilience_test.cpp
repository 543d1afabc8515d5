// Fault-tolerance tests: write-ahead journaling with resume equivalence,
// retry/timeout/quarantine behaviour under deterministic fault injection,
// and the kill-at-every-checkpoint torture loop. The core guarantee under
// test: a study interrupted at ANY journal boundary and resumed produces a
// dataset byte-identical to an uninterrupted run.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "core/study.hpp"
#include "sim/executor.hpp"
#include "sim/fault_runner.hpp"
#include "store/reader.hpp"
#include "store/tiered.hpp"
#include "sweep/harness.hpp"
#include "sweep/journal.hpp"
#include "sweep/resilience.hpp"
#include "sweep/sharding.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace omptune::sweep {
namespace {

using arch::ArchId;
using arch::architecture;

/// Unique scratch directory per test, removed on teardown.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("omptune_test_" + tag + "_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string canonical_csv(const Dataset& dataset) {
  std::ostringstream os;
  dataset.to_csv().write(os);
  return os.str();
}

StudyPlan small_plan() { return StudyPlan::mini_plan(2, 12); }

// ---- util::fs ---------------------------------------------------------------

TEST(AtomicWrite, ReplacesContentAtomically) {
  ScratchDir dir("atomic");
  util::create_directories(dir.path());
  const std::string file = util::path_join(dir.path(), "x.txt");
  util::atomic_write_file(file, "first");
  EXPECT_EQ(util::read_file(file).value(), "first");
  util::atomic_write_file(file, "second");
  EXPECT_EQ(util::read_file(file).value(), "second");
  // No temp droppings left behind.
  EXPECT_EQ(util::list_files(dir.path()).size(), 1u);
}

TEST(AtomicWrite, MissingFileReadsAsNullopt) {
  ScratchDir dir("missing");
  util::create_directories(dir.path());
  EXPECT_FALSE(util::read_file(util::path_join(dir.path(), "nope")).has_value());
}

// ---- journal ----------------------------------------------------------------

TEST(StudyJournal, RecordLoadRoundTrip) {
  ScratchDir dir("journal_rt");
  StudyJournal journal(dir.path());

  sim::ModelRunner runner;
  SweepHarness harness(runner, 2, 7);
  const auto& cpu = architecture(ArchId::Milan);
  StudySetting setting{&apps::find_application("xsbench"),
                       apps::find_application("xsbench").default_input(), 48};
  Dataset batch = harness.run_setting(cpu, setting, 25);

  const std::string key = setting_key(cpu.name, setting);
  EXPECT_FALSE(journal.contains(key));
  journal.record(key, batch);
  EXPECT_TRUE(journal.contains(key));

  const Dataset loaded = journal.load(key, 25);
  EXPECT_EQ(canonical_csv(loaded), canonical_csv(batch));

  journal.discard(key);
  EXPECT_FALSE(journal.contains(key));
}

TEST(StudyJournal, LoadRejectsWrongSampleCount) {
  ScratchDir dir("journal_count");
  StudyJournal journal(dir.path());
  sim::ModelRunner runner;
  SweepHarness harness(runner, 2, 7);
  const auto& cpu = architecture(ArchId::A64FX);
  StudySetting setting{&apps::find_application("cg"),
                       apps::find_application("cg").input_sizes().front(), 0};
  journal.record("k", harness.run_setting(cpu, setting, 10));
  EXPECT_NO_THROW(journal.load("k", 10));
  EXPECT_THROW(journal.load("k", 11), util::DataCorruptionError);
  EXPECT_THROW(journal.load("absent"), util::DataCorruptionError);
}

TEST(StudyJournal, GarbledEntryRaisesDataCorruption) {
  ScratchDir dir("journal_garbled");
  StudyJournal journal(dir.path());
  sim::ModelRunner runner;
  SweepHarness harness(runner, 2, 7);
  const auto& cpu = architecture(ArchId::Skylake);
  StudySetting setting{&apps::find_application("bt"),
                       apps::find_application("bt").input_sizes().front(), 0};
  journal.record("k", harness.run_setting(cpu, setting, 8));

  // Truncate mid-row: the loader must refuse, not return fewer samples.
  const std::string path = journal.entry_path("k");
  const std::string full = util::read_file(path).value();
  util::atomic_write_file(path, full.substr(0, full.size() * 2 / 3));
  EXPECT_THROW(journal.load("k", 8), util::DataCorruptionError);
}

// ---- resilience policy ------------------------------------------------------

ResilienceOptions fast_options(int retries = 3) {
  ResilienceOptions options;
  options.max_retries = retries;
  options.backoff_base_ms = 0;  // no sleeping in tests
  return options;
}

TEST(ResiliencePolicy, RetriesTransientCrashesAndMarksRetried) {
  sim::ModelRunner inner;
  sim::FaultSpec spec;
  spec.seed = 42;
  spec.crash_rate = 0.5;  // heavy, but retries draw fresh values
  sim::FaultInjectingRunner runner(inner, spec);

  ResiliencePolicy policy(fast_options(6));
  const auto& cpu = architecture(ArchId::Milan);
  const auto& app = apps::find_application("xsbench");
  const rt::RtConfig config = rt::RtConfig::defaults_for(cpu);

  int retried = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const MeasureOutcome outcome =
        policy.measure(runner, app, app.default_input(), cpu, config, 1, 0, i);
    ASSERT_NE(outcome.status, SampleStatus::Quarantined) << i;
    EXPECT_GT(outcome.runtime, 0.0);
    if (outcome.status == SampleStatus::Retried) ++retried;
  }
  EXPECT_GT(retried, 0);
  EXPECT_GT(policy.total_retries(), 0u);
}

TEST(ResiliencePolicy, NanRuntimesAreRetriedThenQuarantined) {
  sim::ModelRunner inner;
  sim::FaultSpec spec;
  spec.seed = 7;
  spec.nan_rate = 1.0;
  spec.sticky = true;  // every attempt fails -> must quarantine
  sim::FaultInjectingRunner runner(inner, spec);

  ResiliencePolicy policy(fast_options(2));
  const auto& cpu = architecture(ArchId::Skylake);
  const auto& app = apps::find_application("cg");
  const rt::RtConfig config = rt::RtConfig::defaults_for(cpu);

  const MeasureOutcome outcome =
      policy.measure(runner, app, app.default_input(), cpu, config, 1, 0, 0);
  EXPECT_EQ(outcome.status, SampleStatus::Quarantined);
  EXPECT_EQ(outcome.attempts, 3);  // 1 try + 2 retries
  EXPECT_FALSE(outcome.error.empty());

  // The triple is now on the quarantine list: same config fails fast.
  const MeasureOutcome again =
      policy.measure(runner, app, app.default_input(), cpu, config, 1, 1, 0);
  EXPECT_EQ(again.status, SampleStatus::Quarantined);
  EXPECT_EQ(again.attempts, 0);
}

TEST(ResiliencePolicy, WatchdogConvertsHangsIntoTimeouts) {
  sim::ModelRunner inner;
  sim::FaultSpec spec;
  spec.seed = 3;
  spec.hang_rate = 1.0;
  spec.hang_ms = 200;
  spec.sticky = true;
  sim::FaultInjectingRunner runner(inner, spec);

  ResilienceOptions options = fast_options(1);
  options.sample_timeout_ms = 25;
  ResiliencePolicy policy(options);
  const auto& cpu = architecture(ArchId::Milan);
  const auto& app = apps::find_application("lulesh");

  const apps::InputSize input = app.default_input();
  const rt::RtConfig config = rt::RtConfig::defaults_for(cpu);

  const MeasureOutcome outcome =
      policy.measure(runner, app, input, cpu, config, 2, 0, 0);
  EXPECT_EQ(outcome.status, SampleStatus::Quarantined);
  EXPECT_NE(outcome.error.find("deadline"), std::string::npos) << outcome.error;

  // The abandoned attempts still sleep inside `runner` with `input`; both
  // must stay alive until they return.
  for (int i = 0; i < 500 && watchdog_attempts_in_flight() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(watchdog_attempts_in_flight(), 0u);
}

TEST(ResiliencePolicy, StudyAbortAlwaysEscapes) {
  sim::ModelRunner inner;
  sim::FaultSpec spec;
  spec.kill_after_runs = 1;
  sim::FaultInjectingRunner runner(inner, spec);
  ResiliencePolicy policy(fast_options(5));
  const auto& cpu = architecture(ArchId::Milan);
  const auto& app = apps::find_application("xsbench");
  EXPECT_THROW(policy.measure(runner, app, app.default_input(), cpu,
                              rt::RtConfig::defaults_for(cpu), 1, 0, 0),
               util::StudyAbort);
}

// ---- harness under faults ---------------------------------------------------

TEST(ResilientStudy, CompletesUnderInjectedFaultsWithQuarantine) {
  sim::ModelRunner inner;
  sim::FaultSpec spec;
  spec.seed = 11;
  spec.crash_rate = 0.02;
  spec.nan_rate = 0.01;
  spec.negative_rate = 0.01;
  spec.sticky = true;  // some samples fail on every attempt -> quarantine
  sim::FaultInjectingRunner runner(inner, spec);

  SweepHarness harness(runner, 2, 5);
  StudyRunOptions options;
  options.resilient = true;
  options.resilience = fast_options(2);

  Dataset dataset;
  ASSERT_NO_THROW(dataset = harness.run_study(small_plan(), options));
  EXPECT_EQ(dataset.size(), 3u * 2u * 12u);  // every planned sample recorded
  EXPECT_GT(dataset.quarantined_count(), 0u);
  EXPECT_LT(dataset.quarantined_count(), dataset.size());
  ASSERT_NE(harness.last_policy(), nullptr);
  EXPECT_FALSE(harness.last_policy()->quarantined().empty());

  // Quarantined samples are flagged, carry placeholder values, and survive
  // a CSV round trip.
  for (const Sample& s : dataset.samples()) {
    if (s.is_quarantined()) {
      EXPECT_EQ(s.mean_runtime, 0.0);
      EXPECT_EQ(s.speedup, 0.0);
      EXPECT_FALSE(s.error.empty());
    } else {
      EXPECT_GT(s.mean_runtime, 0.0);
    }
  }
  std::ostringstream os;
  dataset.to_csv().write(os);
  std::istringstream is(os.str());
  const Dataset parsed = Dataset::from_csv(util::CsvTable::read(is));
  EXPECT_EQ(parsed.quarantined_count(), dataset.quarantined_count());

  // Downstream analysis skips quarantined rows without crashing.
  sim::ModelRunner analysis_runner;
  core::Study study(analysis_runner);
  const core::StudyResult result = study.analyze(dataset);
  for (const auto& upshot : result.upshot) {
    EXPECT_GT(upshot.min_best, 0.0) << upshot.arch;
  }
}

TEST(ResilientStudy, FaultFreeResilientRunMatchesBareRun) {
  StudyPlan plan = small_plan();
  sim::ModelRunner runner_a, runner_b;
  SweepHarness bare(runner_a, 2, 5), resilient(runner_b, 2, 5);
  StudyRunOptions options;
  options.resilient = true;
  options.resilience = fast_options(3);
  EXPECT_EQ(canonical_csv(bare.run_study(plan)),
            canonical_csv(resilient.run_study(plan, options)));
}

// ---- resume equivalence -----------------------------------------------------

/// Run the plan with a journal, killing the process (simulated) after
/// `kill_after` successful runner calls; then resume to completion and
/// return the final dataset.
Dataset run_killed_then_resumed(const StudyPlan& plan, std::uint64_t kill_after,
                                const std::string& journal_dir, int reps,
                                std::uint64_t seed) {
  StudyRunOptions options;
  options.journal_dir = journal_dir;
  options.resume = true;
  options.resilient = true;
  options.resilience.max_retries = 1;

  {
    sim::ModelRunner inner;
    sim::FaultSpec spec;
    spec.kill_after_runs = kill_after;
    sim::FaultInjectingRunner runner(inner, spec);
    SweepHarness harness(runner, reps, seed);
    EXPECT_THROW(harness.run_study(plan, options), util::StudyAbort);
  }
  // "New process": fresh runner and harness, same journal.
  sim::ModelRunner runner;
  SweepHarness harness(runner, reps, seed);
  return harness.run_study(plan, options);
}

TEST(ResumableStudy, ResumeAfterEveryCheckpointIsByteIdentical) {
  const StudyPlan plan = small_plan();
  sim::ModelRunner reference_runner;
  SweepHarness reference(reference_runner, 2, 5);
  const std::string expected = canonical_csv(reference.run_study(plan));

  // Samples per setting = 12 configs x 2 reps; kill right after each
  // setting boundary (and mid-setting for good measure).
  const std::uint64_t per_setting = 12 * 2;
  std::size_t checkpoint = 0;
  for (const std::uint64_t kill :
       {per_setting, per_setting + 5, 2 * per_setting, 3 * per_setting + 1,
        5 * per_setting, 6 * per_setting - 1}) {
    ScratchDir dir("resume_" + std::to_string(checkpoint++));
    const Dataset resumed =
        run_killed_then_resumed(plan, kill, dir.path(), 2, 5);
    EXPECT_EQ(canonical_csv(resumed), expected) << "kill after " << kill;
  }
}

TEST(ResumableStudy, ShardedPlanResumesByteIdentical) {
  const StudyPlan plan = StudyPlan::mini_plan(3, 8);
  const StudyPlan shard = shard_plan(plan, 1, 2);

  sim::ModelRunner reference_runner;
  SweepHarness reference(reference_runner, 2, 9);
  const std::string expected = canonical_csv(reference.run_study(shard));

  ScratchDir dir("resume_shard");
  const Dataset resumed =
      run_killed_then_resumed(shard, 8 * 2 + 3, dir.path(), 2, 9);
  EXPECT_EQ(canonical_csv(resumed), expected);
}

TEST(ResumableStudy, ResumeSkipsCompletedSettings) {
  const StudyPlan plan = small_plan();
  ScratchDir dir("resume_skip");

  StudyRunOptions options;
  options.journal_dir = dir.path();
  options.resume = true;
  options.resilient = true;

  sim::ModelRunner runner_a;
  SweepHarness first(runner_a, 2, 5);
  const Dataset original = first.run_study(plan, options);

  // Re-running resumes every setting from the journal: zero runner calls.
  sim::ModelRunner inner;
  sim::FaultSpec spec;  // no faults
  sim::FaultInjectingRunner counting(inner, spec);
  SweepHarness second(counting, 2, 5);
  const Dataset replayed = second.run_study(plan, options);
  EXPECT_EQ(counting.completed_runs(), 0u);
  EXPECT_EQ(canonical_csv(replayed), canonical_csv(original));
}

TEST(ResumableStudy, CorruptJournalEntryIsRecollected) {
  const StudyPlan plan = small_plan();
  ScratchDir dir("resume_corrupt");

  StudyRunOptions options;
  options.journal_dir = dir.path();
  options.resume = true;
  options.resilient = true;

  sim::ModelRunner runner;
  SweepHarness harness(runner, 2, 5);
  const std::string expected = canonical_csv(harness.run_study(plan, options));

  // Garble one journal entry; the resumed study must detect it, recollect
  // that setting, and still produce the identical dataset.
  StudyJournal journal(dir.path());
  const auto& cpu = architecture(plan.arch_plans[0].arch);
  const std::string key =
      setting_key(cpu.name, plan.arch_plans[0].settings[0]);
  ASSERT_TRUE(journal.contains(key));
  util::atomic_write_file(journal.entry_path(key), "arch,app\ngarbage");

  sim::ModelRunner runner2;
  SweepHarness harness2(runner2, 2, 5);
  EXPECT_EQ(canonical_csv(harness2.run_study(plan, options)), expected);
}

// ---- merge of quarantined shards -------------------------------------------

TEST(MergeShards, SurfacesQuarantinedSettingsInsteadOfDropping) {
  // Quarantined placeholders travel through the shard stores and their
  // tiered merge: every setting of the plan is still in the merged store
  // at full size, and the quarantined rows are there to be seen.
  const StudyPlan plan = StudyPlan::mini_plan(2, 6);
  ScratchDir scratch("merge_quarantine");
  std::filesystem::create_directories(scratch.path());

  std::vector<std::string> shard_stores;
  std::size_t quarantined_in = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    sim::ModelRunner inner;
    sim::FaultSpec spec;
    spec.seed = 21;
    spec.nan_rate = i == 0 ? 0.05 : 0.0;  // shard 0 is flaky
    spec.sticky = true;
    sim::FaultInjectingRunner runner(inner, spec);
    SweepHarness harness(runner, 2, 5);
    StudyRunOptions options;
    options.resilient = true;
    options.resilience.max_retries = 1;
    const Dataset shard = harness.run_study(shard_plan(plan, i, 2), options);
    quarantined_in += shard.quarantined_count();
    shard_stores.push_back(
        util::path_join(scratch.path(), "shard-" + std::to_string(i) + ".omps"));
    shard.save_store(shard_stores.back());
  }
  ASSERT_GT(quarantined_in, 0u);

  const std::string out = util::path_join(scratch.path(), "merged.omps");
  const store::TieredReport report = store::tiered_compact(shard_stores, out);
  EXPECT_EQ(report.quarantined, quarantined_in);
  EXPECT_EQ(shard_store_mismatch(plan, store::StoreReader(out)), std::nullopt);

  const Dataset merged = Dataset::load_store(out);
  EXPECT_EQ(merged.size(), 3u * 2u * 6u);
  EXPECT_EQ(merged.quarantined_count(), quarantined_in);
  std::map<std::string, std::pair<std::size_t, std::size_t>> per_setting;
  for (const Sample& sample : merged.samples()) {
    auto& [quarantined, total] =
        per_setting[sample.arch + "/" + sample.app + "/" + sample.input];
    ++total;
    if (sample.is_quarantined()) ++quarantined;
  }
  std::size_t flagged_settings = 0;
  for (const auto& [setting, counts] : per_setting) {
    if (counts.first == 0) continue;
    ++flagged_settings;
    EXPECT_LE(counts.first, counts.second) << setting;
  }
  EXPECT_GT(flagged_settings, 0u);
}

}  // namespace
}  // namespace omptune::sweep
