// Process-isolated supervisor tests. The core guarantees under test:
//
//  1. Equivalence: a supervised study (any worker count) produces the
//     CSV-canonical identical dataset to the single-process harness.
//  2. Containment: workers SIGKILLed, segfaulting, wedged, or writing
//     protocol garbage at deterministic chaos points never lose or
//     duplicate completed samples — the journal holds exactly an
//     undisturbed run's entry files, and compacts to its bytes.
//  3. Evidence: a setting that keeps killing its workers is quarantined
//     with the termination signal recorded, and the study still completes.
//  4. Drain/resume: an interrupted supervised study resumes from its
//     journal to the identical dataset, and a SIGINT during a resume whose
//     settings are all settled lets it assemble instead of killing it.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include "arch/cpu_arch.hpp"
#include "sim/executor.hpp"
#include "store/compact.hpp"
#include "sweep/harness.hpp"
#include "sweep/journal.hpp"
#include "sweep/supervisor.hpp"
#include "sweep/worker.hpp"
#include "util/fs.hpp"
#include "util/io_hooks.hpp"

#include "scratch_dir.hpp"

namespace omptune::sweep {
namespace {

std::string canonical_csv(const Dataset& dataset) {
  std::ostringstream os;
  dataset.to_csv().write(os);
  return os.str();
}

constexpr int kReps = 2;
constexpr std::uint64_t kSeed = 5;

StudyPlan plan_under_test() { return StudyPlan::mini_plan(2, 6); }

/// The single-process reference: same plan, reps and seed as the
/// supervised runs, so any divergence is the supervisor's fault.
std::string reference_csv(const StudyPlan& plan) {
  sim::ModelRunner runner;
  SweepHarness harness(runner, kReps, kSeed);
  return canonical_csv(harness.run_study(plan));
}

RunnerFactory model_factory() {
  return [] { return std::make_unique<sim::ModelRunner>(); };
}

/// SIGKILLs the first worker process that reaches `op`, and only the first:
/// the marker file, created exclusively, is shared by every forked worker.
/// The process that built the hook (the supervisor) is never killed.
class KillFirstWorkerAt : public util::IoHooks {
 public:
  KillFirstWorkerAt(util::IoOp op, std::string marker)
      : op_(op), marker_(std::move(marker)), supervisor_(::getpid()) {}
  int before(const util::IoSite& site) override {
    if (site.op == op_ && ::getpid() != supervisor_ &&
        ::open(marker_.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644) >= 0) {
      ::raise(SIGKILL);
    }
    return 0;
  }

 private:
  util::IoOp op_;
  std::string marker_;
  pid_t supervisor_;
};

/// Sorted names of everything directly inside `dir`.
std::vector<std::string> directory_names(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

SupervisorOptions base_options() {
  SupervisorOptions options;
  options.repetitions = kReps;
  options.seed = kSeed;
  options.heartbeat_timeout_ms = 8000;
  return options;
}

// ---- plan flattening --------------------------------------------------------

TEST(FlattenPlan, PreservesRunStudyOrderAndKeys) {
  const StudyPlan plan = plan_under_test();
  const std::vector<SettingTask> tasks = flatten_plan(plan);
  std::size_t expected = 0;
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    expected += arch_plan.settings.size();
  }
  ASSERT_EQ(tasks.size(), expected);
  std::size_t i = 0;
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    const arch::CpuArch& cpu = arch::architecture(arch_plan.arch);
    for (const StudySetting& setting : arch_plan.settings) {
      EXPECT_EQ(tasks[i].key, setting_key(cpu.name, setting));
      EXPECT_EQ(tasks[i].arch, arch_plan.arch);
      ++i;
    }
  }
}

// ---- equivalence ------------------------------------------------------------

TEST(Supervisor, SingleWorkerMatchesSingleProcess) {
  const StudyPlan plan = plan_under_test();
  SupervisorOptions options = base_options();
  options.workers = 1;
  StudySupervisor supervisor(model_factory(), options);
  const Dataset dataset = supervisor.run(plan);
  EXPECT_EQ(canonical_csv(dataset), reference_csv(plan));
  EXPECT_EQ(supervisor.report().settings_completed,
            supervisor.report().settings_total);
  EXPECT_EQ(supervisor.report().worker_crashes, 0u);
  EXPECT_FALSE(supervisor.report().interrupted);
  // A private temp journal is removed after a completed run.
  EXPECT_TRUE(supervisor.report().journal_dir.empty());
}

TEST(Supervisor, WorkerPoolMatchesSingleProcess) {
  const StudyPlan plan = plan_under_test();
  SupervisorOptions options = base_options();
  options.workers = 4;
  StudySupervisor supervisor(model_factory(), options);
  EXPECT_EQ(canonical_csv(supervisor.run(plan)), reference_csv(plan));
  EXPECT_EQ(supervisor.report().settings_completed,
            supervisor.report().settings_total);
}

TEST(Supervisor, EmptyPlanYieldsEmptyDataset) {
  StudySupervisor supervisor(model_factory(), base_options());
  const Dataset dataset = supervisor.run(StudyPlan{});
  EXPECT_EQ(dataset.size(), 0u);
  EXPECT_EQ(supervisor.report().settings_total, 0u);
}

// ---- chaos containment ------------------------------------------------------

TEST(Supervisor, ChaosKillsAreContainedAndDatasetIdentical) {
  const StudyPlan plan = plan_under_test();
  SupervisorOptions options = base_options();
  options.workers = 3;
  options.chaos = sim::ChaosSpec::parse("seed=7,kill=0.02,segv=0.01");
  // Chaos kills are environmental, not the setting's fault: a crash cap
  // large enough that no setting quarantines keeps the dataset complete.
  options.max_setting_crashes = 1000;
  StudySupervisor supervisor(model_factory(), options);
  const Dataset dataset = supervisor.run(plan);
  const SupervisorReport& report = supervisor.report();
  EXPECT_GT(report.worker_crashes, 0u);
  EXPECT_GT(report.respawns, 0u);
  // Every respawn is gated behind deterministic decorrelated-jitter backoff
  // (shared with the coordinator's re-lease policy) — a crashing
  // environment must never hot-loop the fork path.
  EXPECT_GT(report.respawn_waits, 0u);
  EXPECT_GT(report.respawn_backoff_ms, 0);
  EXPECT_TRUE(report.quarantined_settings.empty());
  EXPECT_EQ(canonical_csv(dataset), reference_csv(plan));
}

TEST(Supervisor, ChaosKillLeavesExactlyTheSingleProcessJournal) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("sup_journal");
  const std::string ref_dir = scratch.file("ref_journal");
  const std::string sup_dir = scratch.file("sup_journal");

  // Undisturbed single-process journaled run.
  {
    sim::ModelRunner runner;
    SweepHarness harness(runner, kReps, kSeed);
    StudyRunOptions run_options;
    run_options.journal_dir = ref_dir;
    run_options.resilient = true;
    harness.run_study(plan, run_options);
  }

  // Supervised run with workers SIGKILLed at deterministic chaos points,
  // which land mid-measurement; one more worker dies mid-write and leaves
  // its temp file for the supervisor's final sweep.
  SupervisorOptions options = base_options();
  options.workers = 4;
  options.journal_dir = sup_dir;
  options.chaos = sim::ChaosSpec::parse("seed=3,kill=0.03");
  options.max_setting_crashes = 1000;
  KillFirstWorkerAt torn(util::IoOp::Write, scratch.file("torn"));
  StudySupervisor supervisor(model_factory(), options);
  {
    util::ScopedIoHooks hooks(&torn);
    supervisor.run(plan);
  }
  ASSERT_GT(supervisor.report().worker_crashes, 1u);

  // SIGKILL at any point must never lose or duplicate a completed sample.
  // Every name in the directory counts (files and subdirectories alike):
  // no `workers/`, no `*.tmp.*`, one entry per setting, each byte-identical.
  const std::vector<std::string> names = directory_names(sup_dir);
  EXPECT_EQ(names, directory_names(ref_dir));
  for (const std::string& name : names) {
    EXPECT_EQ(util::read_file(util::path_join(sup_dir, name)),
              util::read_file(util::path_join(ref_dir, name)))
        << name;
  }
  const std::string ref_store = scratch.file("ref.omps");
  const std::string sup_store = scratch.file("sup.omps");
  StudyJournal(ref_dir).compact(ref_store);
  StudyJournal(sup_dir).compact(sup_store);
  EXPECT_EQ(util::read_file(ref_store), util::read_file(sup_store));
}

TEST(Supervisor, WedgedWorkerIsDetectedByMissedHeartbeats) {
  const StudyPlan plan = plan_under_test();
  SupervisorOptions options = base_options();
  options.workers = 2;
  options.heartbeat_timeout_ms = 300;
  options.heartbeat_interval_ms = 10;
  options.chaos = sim::ChaosSpec::parse("seed=17,wedge=0.08");
  options.max_setting_crashes = 1000;
  StudySupervisor supervisor(model_factory(), options);
  const Dataset dataset = supervisor.run(plan);
  const SupervisorReport& report = supervisor.report();
  EXPECT_GT(report.hang_kills, 0u);
  EXPECT_EQ(report.settings_completed, report.settings_total);
  EXPECT_EQ(canonical_csv(dataset), reference_csv(plan));
}

TEST(Supervisor, GarblingWorkerIsKilledAndWorkReassigned) {
  const StudyPlan plan = plan_under_test();
  SupervisorOptions options = base_options();
  options.workers = 2;
  // Garbling workers stop progressing after the garbage; a short heartbeat
  // timeout doubles as the backstop should the garbage somehow parse.
  options.heartbeat_timeout_ms = 2000;
  options.chaos = sim::ChaosSpec::parse("seed=29,garble=0.08");
  options.max_setting_crashes = 1000;
  StudySupervisor supervisor(model_factory(), options);
  const Dataset dataset = supervisor.run(plan);
  const SupervisorReport& report = supervisor.report();
  EXPECT_GT(report.protocol_errors, 0u);
  EXPECT_EQ(canonical_csv(dataset), reference_csv(plan));
}

// ---- quarantine with evidence -----------------------------------------------

TEST(Supervisor, PoisonousSettingQuarantinesWithSignalEvidence) {
  const StudyPlan plan = plan_under_test();
  const std::vector<SettingTask> tasks = flatten_plan(plan);
  const std::string poisoned_app = tasks[0].setting.app->name();
  std::size_t poisoned = 0;
  for (const SettingTask& task : tasks) {
    if (task.setting.app->name() == poisoned_app) ++poisoned;
  }

  SupervisorOptions options = base_options();
  options.workers = 2;
  options.chaos.sticky_kill_substr = "/" + poisoned_app + "/";
  StudySupervisor supervisor(model_factory(), options);
  const Dataset dataset = supervisor.run(plan);
  const SupervisorReport& report = supervisor.report();

  // The study completes; every poisoned setting is quarantined with the
  // termination signal on record, everything else collected normally.
  EXPECT_EQ(report.settings_completed, report.settings_total);
  ASSERT_EQ(report.quarantined_settings.size(), poisoned);
  for (const SupervisedQuarantine& q : report.quarantined_settings) {
    EXPECT_EQ(q.crashes, options.max_setting_crashes);
    EXPECT_NE(q.evidence.find("signal 9"), std::string::npos) << q.evidence;
    EXPECT_NE(q.key.find("/" + poisoned_app + "/"), std::string::npos);
  }
  EXPECT_GT(dataset.quarantined_count(), 0u);
  std::size_t quarantined_samples = 0;
  for (const Sample& s : dataset.samples()) {
    if (!s.is_quarantined()) {
      EXPECT_EQ(s.app.find(poisoned_app), std::string::npos);
      continue;
    }
    ++quarantined_samples;
    EXPECT_EQ(s.app, poisoned_app);
    EXPECT_NE(s.error.find("signal 9"), std::string::npos) << s.error;
  }
  EXPECT_EQ(quarantined_samples, dataset.quarantined_count());

  // Shape compatibility: quarantining must not change the dataset size.
  sim::ModelRunner runner;
  SweepHarness harness(runner, kReps, kSeed);
  EXPECT_EQ(dataset.size(), harness.run_study(plan).size());
}

// ---- graceful drain and resume ----------------------------------------------

TEST(Supervisor, RequestStopDrainsAndResumeCompletesIdentically) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("sup_resume");
  const std::string journal_dir = util::path_join(scratch.path(), "journal");

  SupervisorOptions options = base_options();
  options.workers = 2;
  options.journal_dir = journal_dir;
  StudySupervisor* target = nullptr;
  options.progress = [&target](const std::string& message) {
    // Stop after the first completed setting, as SIGINT would.
    if (target != nullptr && message.find(" samples ") != std::string::npos) {
      target->request_stop();
    }
  };
  StudySupervisor first(model_factory(), options);
  target = &first;
  const Dataset partial = first.run(plan);
  const SupervisorReport& report = first.report();
  EXPECT_TRUE(report.interrupted);
  EXPECT_LT(report.settings_completed, report.settings_total);
  EXPECT_EQ(partial.size() % 6, 0u);  // whole settings only, 6 configs each
  EXPECT_EQ(report.journal_dir, journal_dir);

  // Resume to completion with a fresh supervisor.
  SupervisorOptions resume_options = base_options();
  resume_options.workers = 2;
  resume_options.journal_dir = journal_dir;
  resume_options.resume = true;
  StudySupervisor second(model_factory(), resume_options);
  const Dataset completed = second.run(plan);
  EXPECT_FALSE(second.report().interrupted);
  EXPECT_EQ(second.report().settings_resumed, report.settings_completed);
  EXPECT_EQ(canonical_csv(completed), reference_csv(plan));
}

TEST(Supervisor, SalvagesEntriesRecordedByWorkersKilledBeforeReporting) {
  // A worker SIGKILLed between journal.record and its `done` report has
  // already put the completed entry in the study journal: the supervisor
  // must count it done instead of blaming (and recollecting) its setting.
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("sup_salvage");
  SupervisorOptions options = base_options();
  options.workers = 2;
  options.journal_dir = scratch.file("journal");
  std::size_t salvaged = 0;
  options.progress = [&salvaged](const std::string& message) {
    if (message.find(" salvaged from dead worker ") != std::string::npos) {
      ++salvaged;
    }
  };
  // The directory fsync after an entry's rename: the entry is in place,
  // its `done` not yet sent.
  KillFirstWorkerAt kill(util::IoOp::FsyncDir, scratch.file("killed"));
  StudySupervisor supervisor(model_factory(), options);
  Dataset dataset;
  {
    util::ScopedIoHooks hooks(&kill);
    dataset = supervisor.run(plan);
  }
  EXPECT_EQ(supervisor.report().worker_crashes, 1u);
  EXPECT_EQ(salvaged, 1u);
  EXPECT_EQ(canonical_csv(dataset), reference_csv(plan));
}

TEST(Supervisor, SignalDuringASettledResumeStillAssembles) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("sup_sigint");
  const std::string journal_dir = util::path_join(scratch.path(), "journal");
  SupervisorOptions options = base_options();
  options.workers = 2;
  options.journal_dir = journal_dir;
  StudySupervisor first(model_factory(), options);
  ASSERT_EQ(canonical_csv(first.run(plan)), reference_csv(plan));

  // Every setting is in the journal, so the fleet has nothing to run; the
  // first resumed setting's report raises the SIGINT.
  options.resume = true;
  options.progress = [](const std::string& message) {
    if (message.find(" resumed from journal") != std::string::npos) {
      ::raise(SIGINT);
    }
  };
  const std::string expected = reference_csv(plan);
  // In a child: without a guard spanning the resume scan and the assembly,
  // SIGINT's default action kills it, and that is this test's failure, not
  // the binary's.
  EXPECT_EXIT(
      {
        StudySupervisor second(model_factory(), options);
        const Dataset dataset = second.run(plan);
        const SupervisorReport& report = second.report();
        const bool assembled =
            !report.interrupted &&
            report.settings_resumed == report.settings_total &&
            canonical_csv(dataset) == expected;
        ::_exit(assembled ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Supervisor, StaleJournalEntriesAreDiscardedWithoutResume) {
  // Without --resume, an existing journal entry (e.g. from a different
  // seed) must be recollected, not silently merged into the dataset.
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("sup_stale");
  const std::string journal_dir = util::path_join(scratch.path(), "journal");
  const std::vector<SettingTask> tasks = flatten_plan(plan);
  {
    sim::ModelRunner runner;
    SweepHarness other_seed(runner, kReps, kSeed + 1);
    const arch::CpuArch& cpu = arch::architecture(tasks[0].arch);
    StudyJournal(journal_dir)
        .record(tasks[0].key,
                other_seed.run_setting(cpu, tasks[0].setting,
                                       tasks[0].config_count));
  }
  SupervisorOptions options = base_options();
  options.workers = 2;
  options.journal_dir = journal_dir;
  StudySupervisor supervisor(model_factory(), options);
  EXPECT_EQ(canonical_csv(supervisor.run(plan)), reference_csv(plan));
  EXPECT_EQ(supervisor.report().settings_resumed, 0u);
}

}  // namespace
}  // namespace omptune::sweep
