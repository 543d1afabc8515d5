// Multi-host coordinator tests. The core guarantees under test:
//
//  1. Equivalence: a coordinated study (any host/shard split) publishes a
//     byte-stable compacted store holding the CSV-canonical identical
//     dataset to the single-process harness's.
//  2. Containment: host agents SIGKILLed, wedged, truncating their shard
//     stores, or double-delivering at deterministic chaos points never
//     change the published store — it stays byte-identical to a fault-free
//     run's (the property CI cmp's). Neither does a shard store that holds
//     another shard's settings: it fails the plan check and is recollected.
//  3. Durability: the coordinator's write-ahead lease table survives a kill
//     mid-lease (--resume completes to the identical store), a failed
//     strict compaction writes nothing, and a SIGINT during the final
//     compaction, or during a resume whose shards are all settled, lets it
//     publish.
//  4. Evidence: a shard that kills every holder exhausts its attempt cap
//     and quarantines with the termination signal on record, gated by
//     deterministic decorrelated-jitter backoff. Under lenient, a
//     placeholder store that could not be written is skipped and named.

#include <gtest/gtest.h>

#include <errno.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/executor.hpp"
#include "sim/fault_runner.hpp"
#include "store/compact.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/harness.hpp"
#include "sweep/lease.hpp"
#include "sweep/sharding.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/io_hooks.hpp"

#include "scratch_dir.hpp"

namespace omptune::sweep {
namespace {

constexpr int kReps = 2;
constexpr std::uint64_t kSeed = 5;

StudyPlan plan_under_test() { return StudyPlan::mini_plan(2, 6); }

/// The dataset's CSV with its rows sorted: the published store holds the
/// shards one after another, not in the plan order of a single run.
std::string canonical_csv(const Dataset& dataset) {
  std::ostringstream os;
  dataset.to_csv().write(os);
  std::istringstream is(os.str());
  std::string header;
  std::getline(is, header);
  std::vector<std::string> rows;
  for (std::string row; std::getline(is, row);) rows.push_back(row);
  std::sort(rows.begin(), rows.end());
  std::string out = header + "\n";
  for (const std::string& row : rows) out += row + "\n";
  return out;
}

/// The single-process reference: same plan, reps and seed as the
/// coordinated runs, so any divergence is the coordinator's fault.
std::string reference_csv(const StudyPlan& plan) {
  sim::ModelRunner runner;
  SweepHarness harness(runner, kReps, kSeed);
  return canonical_csv(harness.run_study(plan));
}

RunnerFactory model_factory() {
  return [] { return std::make_unique<sim::ModelRunner>(); };
}

CoordinatorOptions base_options() {
  CoordinatorOptions options;
  options.hosts = 2;
  options.shards = 4;
  options.repetitions = kReps;
  options.seed = kSeed;
  options.heartbeat_timeout_ms = 8000;
  options.backoff.base_ms = 1;  // fast re-leases; jitter still applies
  options.backoff.max_ms = 50;
  return options;
}

std::string store_bytes(const std::string& path) {
  const std::optional<std::string> bytes = util::read_file(path);
  EXPECT_TRUE(bytes.has_value()) << path;
  return bytes.value_or("");
}

/// Keep the front half of a store file: a torn write, as a crash leaves it.
void truncate_file(const std::string& path) {
  const std::string bytes = store_bytes(path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
}

/// Lowest chaos seed whose first-attempt draw fires `want` on one of the
/// shards — faults are drawn from (seed, shard, attempt) alone, and the
/// first lease carries attempt 0 (the count of prior failures), so the
/// probe is exact for the run itself.
std::uint64_t probe_chaos_seed(const std::string& rates, sim::ShardFault want,
                               std::size_t shards) {
  for (std::uint64_t seed = 1; seed < 4096; ++seed) {
    const sim::ChaosMonkey monkey(
        sim::ChaosSpec::parse("seed=" + std::to_string(seed) + "," + rates));
    for (std::size_t i = 0; i < shards; ++i) {
      if (monkey.draw_shard_fault("shard-" + std::to_string(i), 0) == want) {
        return seed;
      }
    }
  }
  ADD_FAILURE() << "no chaos seed fires " << sim::to_string(want);
  return 1;
}

// ---- lease table ------------------------------------------------------------

TEST(LeaseTable, SerializeParseRoundTripDropsLiveLeases) {
  LeaseTable table(4);
  table.at(0).state = ShardState::Completed;
  table.at(1).state = ShardState::Leased;  // must come back as Pending
  table.at(1).attempts = 1;
  table.at(2).state = ShardState::Quarantined;
  table.at(2).attempts = 5;
  table.at(2).evidence = "killed by signal 9\nwith a newline";

  const LeaseTable parsed = LeaseTable::parse(table.serialize());
  ASSERT_EQ(parsed.size(), 4u);
  EXPECT_EQ(parsed.at(0).state, ShardState::Completed);
  EXPECT_EQ(parsed.at(1).state, ShardState::Pending);
  EXPECT_EQ(parsed.at(1).attempts, 1);
  EXPECT_EQ(parsed.at(2).state, ShardState::Quarantined);
  EXPECT_EQ(parsed.at(2).attempts, 5);
  // Evidence survives with the newline flattened (one line per shard).
  EXPECT_NE(parsed.at(2).evidence.find("signal 9"), std::string::npos);
  EXPECT_EQ(parsed.at(2).evidence.find('\n'), std::string::npos);
  EXPECT_EQ(parsed.at(3).state, ShardState::Pending);
}

TEST(LeaseTable, ParseRejectsCorruptState) {
  EXPECT_THROW(LeaseTable::parse("not a lease line"),
               util::DataCorruptionError);
  EXPECT_THROW(LeaseTable::parse("shard 1 pending 0"),  // out-of-order index
               util::DataCorruptionError);
  EXPECT_THROW(LeaseTable::parse("shard 0 haunted 0"),  // unknown state
               util::DataCorruptionError);
  EXPECT_THROW(LeaseTable::parse("shard 0 pending -3"),  // negative attempts
               util::DataCorruptionError);
}

// ---- shard-store compaction -------------------------------------------------

class CompactFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    scratch_ = std::make_unique<ScratchDir>("compact");
    const StudyPlan plan = plan_under_test();
    for (std::size_t i = 0; i < 5; ++i) {
      sim::ModelRunner runner;
      SweepHarness harness(runner, kReps, kSeed);
      const Dataset shard = harness.run_study(shard_plan(plan, i, 5));
      total_samples_ += shard.size();
      const std::string path = scratch_->file("in" + std::to_string(i) + ".omps");
      shard.save_store(path);
      inputs_.push_back(path);
    }
  }

  std::unique_ptr<ScratchDir> scratch_;
  std::vector<std::string> inputs_;
  std::size_t total_samples_ = 0;
};

TEST_F(CompactFixture, DuplicateShardStoresDedupeToTheSingleStore) {
  // The same shard delivered twice (a re-submitted batch job): the merge
  // must keep one copy and the bytes must match the non-duplicated merge.
  const std::string once = scratch_->file("once.omps");
  const std::string twice = scratch_->file("twice.omps");
  store::compact({inputs_[0]}, once);
  const store::CompactReport report =
      store::compact({inputs_[0], inputs_[0]}, twice);
  EXPECT_GT(report.duplicates_dropped, 0u);
  EXPECT_EQ(store_bytes(once), store_bytes(twice));
}

TEST_F(CompactFixture, StrictModeNamesTheCorruptInput) {
  truncate_file(inputs_[3]);
  const std::string out = scratch_->file("out.omps");
  try {
    store::compact(inputs_, out);
    FAIL() << "corrupt input must abort a strict compaction";
  } catch (const util::DataCorruptionError& error) {
    EXPECT_NE(error.file().find("in3.omps"), std::string::npos) << error.file();
  }
  EXPECT_FALSE(util::file_exists(out));
}

TEST_F(CompactFixture, LenientModeSkipsTheCorruptInput) {
  const Dataset dropped = Dataset::load_store(inputs_[3]);
  truncate_file(inputs_[3]);
  const std::string out = scratch_->file("out.omps");
  store::CompactOptions options;
  options.lenient = true;
  const store::CompactReport report = store::compact(inputs_, out, options);
  ASSERT_EQ(report.skipped_inputs.size(), 1u);
  EXPECT_EQ(report.skipped_inputs[0].path, inputs_[3]);
  EXPECT_EQ(report.samples_out, total_samples_ - dropped.size());
}

TEST_F(CompactFixture, MissingInputThrowsStrictAndIsSkippedLenient) {
  const Dataset dropped = Dataset::load_store(inputs_[2]);
  util::remove_file(inputs_[2]);
  const std::string out = scratch_->file("out.omps");
  EXPECT_THROW(store::compact(inputs_, out), util::StoreOpenError);

  store::CompactOptions options;
  options.lenient = true;
  const store::CompactReport report = store::compact(inputs_, out, options);
  ASSERT_EQ(report.skipped_inputs.size(), 1u);
  EXPECT_EQ(report.skipped_inputs[0].path, inputs_[2]);
  EXPECT_NE(report.skipped_inputs[0].reason.find("cannot open store"),
            std::string::npos)
      << report.skipped_inputs[0].reason;
  EXPECT_EQ(report.samples_out, total_samples_ - dropped.size());
  EXPECT_EQ(Dataset::load_store(out).size(), total_samples_ - dropped.size());
}

// ---- coordinator equivalence ------------------------------------------------

TEST(Coordinator, MatchesSingleProcessRun) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("coord_equiv");
  const std::string out = scratch.file("study.omps");
  CoordinatorOptions options = base_options();
  options.hosts = 3;
  Coordinator coordinator(model_factory(), options);
  const CoordinatorReport& report = coordinator.run(plan, out);
  const Dataset published = Dataset::load_store(out);

  EXPECT_EQ(canonical_csv(published), reference_csv(plan));
  EXPECT_EQ(report.compaction.samples_out, published.size());
  EXPECT_EQ(report.shards_total, 4u);
  EXPECT_EQ(report.shards_completed, report.shards_total);
  EXPECT_EQ(report.host_crashes, 0u);
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.store_path, out);
  // A private work directory is removed after a completed run.
  EXPECT_TRUE(report.work_dir.empty());
}

TEST(Coordinator, EmptyPlanPublishesEmptyStore) {
  ScratchDir scratch("coord_empty");
  const std::string out = scratch.file("empty.omps");
  Coordinator coordinator(model_factory(), base_options());
  EXPECT_EQ(coordinator.run(StudyPlan{}, out).compaction.samples_out, 0u);
  EXPECT_EQ(Dataset::load_store(out).size(), 0u);
}

// ---- chaos containment ------------------------------------------------------

TEST(Coordinator, ChaosRunStoreIsByteIdenticalToCleanRun) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("coord_chaos");
  const std::string clean = scratch.file("clean.omps");
  const std::string chaotic = scratch.file("chaos.omps");

  CoordinatorOptions clean_options = base_options();
  clean_options.hosts = 3;  // host count is free to differ; shards must match
  Coordinator clean_run(model_factory(), clean_options);
  clean_run.run(plan, clean);

  CoordinatorOptions chaos_options = base_options();
  chaos_options.chaos = sim::ChaosSpec::parse(
      "seed=5,kill=0.3,wedge=0.1,truncate=0.2,dup=0.2");
  chaos_options.max_shard_attempts = 100;  // chaos must never quarantine
  chaos_options.heartbeat_timeout_ms = 1500;
  chaos_options.heartbeat_interval_ms = 10;
  Coordinator chaos_run(model_factory(), chaos_options);
  const CoordinatorReport& report = chaos_run.run(plan, chaotic);

  EXPECT_GT(report.host_crashes + report.hang_kills + report.truncated_stores +
                report.duplicate_deliveries + report.re_leases,
            0u)
      << "chaos spec fired no faults; the test is vacuous";
  EXPECT_TRUE(report.quarantined_shards.empty());
  EXPECT_EQ(canonical_csv(Dataset::load_store(chaotic)), reference_csv(plan));
  EXPECT_EQ(store_bytes(clean), store_bytes(chaotic))
      << "chaos leaked into the published store";
}

TEST(Coordinator, TruncatedShardStoreIsDetectedAndRecollected) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("coord_trunc");
  const std::string clean = scratch.file("clean.omps");
  const std::string lied = scratch.file("lied.omps");
  Coordinator clean_run(model_factory(), base_options());
  clean_run.run(plan, clean);

  // A "lying host": publishes a torn store yet reports done. Validation
  // must catch it, strike the shard, and a later attempt repairs it.
  const std::uint64_t seed =
      probe_chaos_seed("truncate=0.6", sim::ShardFault::TruncateStore, 4);
  CoordinatorOptions options = base_options();
  options.chaos =
      sim::ChaosSpec::parse("seed=" + std::to_string(seed) + ",truncate=0.6");
  options.max_shard_attempts = 100;
  Coordinator coordinator(model_factory(), options);
  coordinator.run(plan, lied);
  EXPECT_GT(coordinator.report().truncated_stores, 0u);
  EXPECT_GT(coordinator.report().re_leases, 0u);
  EXPECT_EQ(store_bytes(clean), store_bytes(lied));
}

TEST(Coordinator, DuplicateDeliveryIsIgnoredNotDoubleCounted) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("coord_dup");
  const std::string clean = scratch.file("clean.omps");
  const std::string doubled = scratch.file("doubled.omps");
  Coordinator clean_run(model_factory(), base_options());
  clean_run.run(plan, clean);

  const std::uint64_t seed =
      probe_chaos_seed("dup=0.6", sim::ShardFault::DuplicateDelivery, 4);
  CoordinatorOptions options = base_options();
  options.chaos =
      sim::ChaosSpec::parse("seed=" + std::to_string(seed) + ",dup=0.6");
  Coordinator coordinator(model_factory(), options);
  coordinator.run(plan, doubled);
  EXPECT_GT(coordinator.report().duplicate_deliveries, 0u);
  EXPECT_EQ(store_bytes(clean), store_bytes(doubled));
}

// ---- coordinator kill and resume --------------------------------------------

TEST(Coordinator, KillMidLeaseResumesToByteIdenticalStore) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("coord_resume");
  const std::string clean = scratch.file("clean.omps");
  const std::string resumed = scratch.file("resumed.omps");
  const std::string work_dir = scratch.file("coord");
  Coordinator clean_run(model_factory(), base_options());
  clean_run.run(plan, clean);

  // Stop after the first completed shard, as a SIGKILL of the coordinator
  // would: leases are live, the write-ahead state is mid-study.
  CoordinatorOptions options = base_options();
  options.work_dir = work_dir;
  Coordinator* target = nullptr;
  options.progress = [&target](const std::string& message) {
    if (target != nullptr &&
        message.find(" completed (") != std::string::npos) {
      target->request_stop();
    }
  };
  Coordinator first(model_factory(), options);
  target = &first;
  first.run(plan, resumed);
  ASSERT_TRUE(first.report().interrupted);
  ASSERT_LT(first.report().shards_completed, first.report().shards_total);
  // An interrupted run never publishes the store.
  EXPECT_FALSE(util::file_exists(resumed));

  // A resume under a DIFFERENT configuration must refuse the stale state.
  CoordinatorOptions mismatched = base_options();
  mismatched.work_dir = work_dir;
  mismatched.resume = true;
  mismatched.repetitions = kReps + 1;
  Coordinator wrong(model_factory(), mismatched);
  EXPECT_THROW(wrong.run(plan, resumed), std::invalid_argument);

  CoordinatorOptions resume_options = base_options();
  resume_options.work_dir = work_dir;
  resume_options.resume = true;
  Coordinator second(model_factory(), resume_options);
  second.run(plan, resumed);
  EXPECT_FALSE(second.report().interrupted);
  EXPECT_EQ(second.report().shards_resumed, first.report().shards_completed);
  EXPECT_EQ(canonical_csv(Dataset::load_store(resumed)), reference_csv(plan));
  EXPECT_EQ(store_bytes(clean), store_bytes(resumed));
}

TEST(Coordinator, LyingShardStoreIsStruckAndRecollectedOnResume) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("coord_lying");
  const std::string clean = scratch.file("clean.omps");
  const std::string out = scratch.file("out.omps");
  Coordinator clean_run(model_factory(), base_options());
  clean_run.run(plan, clean);

  CoordinatorOptions options = base_options();
  options.work_dir = scratch.file("coord");
  Coordinator first(model_factory(), options);
  first.run(plan, out);

  // Shard 0's store over shard 1's: complete, valid and the same sample
  // count, but another shard's settings. The write-ahead state still says
  // shard 1 is completed; the plan check at resume must disagree.
  const std::string shards = util::path_join(options.work_dir, "shards");
  const std::string store0 = util::path_join(shards, "shard-0.omps");
  const std::string store1 = util::path_join(shards, "shard-1.omps");
  ASSERT_EQ(Dataset::load_store(store0).size(),
            Dataset::load_store(store1).size());
  std::filesystem::copy_file(store0, store1,
                             std::filesystem::copy_options::overwrite_existing);
  util::remove_file(out);

  options.resume = true;
  Coordinator second(model_factory(), options);
  const CoordinatorReport& report = second.run(plan, out);
  EXPECT_EQ(report.truncated_stores, 0u);
  EXPECT_EQ(report.mismatched_stores, 1u);
  EXPECT_EQ(report.re_leases, 1u);
  EXPECT_EQ(report.shards_resumed, report.shards_total - 1);
  EXPECT_TRUE(report.quarantined_shards.empty());
  EXPECT_EQ(store_bytes(clean), store_bytes(out));
}

/// Raises `signal` when a file whose path starts with `prefix` is opened
/// for writing; every operation proceeds.
class RaiseOnOpen : public util::IoHooks {
 public:
  RaiseOnOpen(std::string prefix, int signal)
      : prefix_(std::move(prefix)), signal_(signal) {}
  int before(const util::IoSite& site) override {
    if (site.op == util::IoOp::Open && site.path.starts_with(prefix_)) {
      ::raise(signal_);
    }
    return 0;
  }

 private:
  std::string prefix_;
  int signal_;
};

TEST(Coordinator, SignalDuringFinalCompactionStillPublishes) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("coord_sigint");
  const std::string clean = scratch.file("clean.omps");
  const std::string out = scratch.file("out.omps");
  Coordinator clean_run(model_factory(), base_options());
  clean_run.run(plan, clean);

  CoordinatorOptions options = base_options();
  options.work_dir = scratch.file("coord");
  // The compaction opening the published store's temp file, just before
  // its publish, raises the SIGINT.
  RaiseOnOpen interrupt_publish(out + ".tmp.", SIGINT);
  // In a child: without a guard spanning the compaction, SIGINT's default
  // action kills it, and that is this test's failure, not the binary's.
  EXPECT_EXIT(
      {
        util::ScopedIoHooks hooks(&interrupt_publish);
        Coordinator coordinator(model_factory(), options);
        const CoordinatorReport& report = coordinator.run(plan, out);
        const bool published = !report.interrupted &&
                               report.store_path == out &&
                               store_bytes(clean) == store_bytes(out);
        ::_exit(published ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Coordinator, SignalDuringASettledResumeStillPublishes) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("coord_sigint_resume");
  const std::string clean = scratch.file("clean.omps");
  const std::string out = scratch.file("out.omps");
  CoordinatorOptions options = base_options();
  options.work_dir = scratch.file("coord");
  Coordinator first(model_factory(), options);
  ASSERT_FALSE(first.run(plan, clean).interrupted);

  // Every shard is settled, so the fleet has nothing to lease; the first
  // resumed shard's report raises the SIGINT.
  options.resume = true;
  options.progress = [](const std::string& line) {
    if (line.find(" resumed (") != std::string::npos) ::raise(SIGINT);
  };
  // In a child, as in the compaction case above: a SIGINT that kills the
  // resume fails this test, not the binary.
  EXPECT_EXIT(
      {
        Coordinator coordinator(model_factory(), options);
        const CoordinatorReport& report = coordinator.run(plan, out);
        const bool published = !report.interrupted &&
                               report.shards_resumed == report.shards_total &&
                               report.store_path == out &&
                               store_bytes(clean) == store_bytes(out);
        ::_exit(published ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Coordinator, ResumeRequiresAWorkDir) {
  CoordinatorOptions options = base_options();
  options.resume = true;
  EXPECT_THROW(Coordinator(model_factory(), options), std::invalid_argument);
}

// ---- shard quarantine -------------------------------------------------------

TEST(Coordinator, PoisonousShardQuarantinesWithSignalEvidence) {
  const StudyPlan plan = plan_under_test();
  const std::vector<SettingTask> tasks = flatten_plan(plan);
  const std::string poisoned_app = tasks[0].setting.app->name();
  const std::string needle = "/" + poisoned_app + "/";

  CoordinatorOptions options = base_options();
  options.max_shard_attempts = 2;
  options.chaos.sticky_kill_substr = needle;
  std::size_t poisoned_shards = 0;
  for (std::size_t i = 0; i < options.shards; ++i) {
    for (const SettingTask& task : flatten_plan(shard_plan(plan, i, options.shards))) {
      if (task.key.find(needle) != std::string::npos) {
        ++poisoned_shards;
        break;
      }
    }
  }
  ASSERT_GT(poisoned_shards, 0u);

  ScratchDir scratch("coord_poison");
  const std::string out = scratch.file("poisoned.omps");
  Coordinator coordinator(model_factory(), options);
  const CoordinatorReport& report = coordinator.run(plan, out);

  // The study completes; every poisoned shard is quarantined with the
  // termination signal on record, after backoff-gated re-leases.
  EXPECT_EQ(report.shards_completed, report.shards_total);
  ASSERT_EQ(report.quarantined_shards.size(), poisoned_shards);
  for (const QuarantinedShard& q : report.quarantined_shards) {
    EXPECT_EQ(q.attempts, options.max_shard_attempts);
    EXPECT_NE(q.evidence.find("signal 9"), std::string::npos) << q.evidence;
    EXPECT_FALSE(q.setting_keys.empty());
  }
  EXPECT_EQ(report.re_leases, poisoned_shards);  // cap is 2: one re-lease each
  EXPECT_GT(report.backoff_ms_total, 0);
  EXPECT_GT(report.host_crashes, 0u);

  // Quarantining must not change the dataset's shape, and the placeholder
  // samples carry the evidence through to the published store.
  sim::ModelRunner runner;
  SweepHarness harness(runner, kReps, kSeed);
  const Dataset stored = Dataset::load_store(out);
  EXPECT_EQ(stored.size(), harness.run_study(plan).size());
  EXPECT_GT(stored.quarantined_count(), 0u);
  EXPECT_EQ(report.compaction.quarantined, stored.quarantined_count());
  for (const Sample& s : stored.samples()) {
    if (!s.is_quarantined()) continue;
    EXPECT_NE(s.error.find("signal 9"), std::string::npos) << s.error;
  }
}

/// Fails every write of one shard's store with ENOSPC, as a full disk
/// would; every other path is left alone. Installed process-wide, so the
/// forked agents inherit it, which the poisoned shard never reaches.
class UnwritableShardStore : public util::IoHooks {
 public:
  explicit UnwritableShardStore(std::string name) : name_(std::move(name)) {}
  int before(const util::IoSite& site) override {
    return site.op == util::IoOp::Open &&
                   site.path.find(name_) != std::string::npos
               ? ENOSPC
               : 0;
  }

 private:
  std::string name_;
};

TEST(Coordinator, LenientRunSkipsAnUnwritableQuarantineStore) {
  // One poisoned setting quarantines shard 0 on its first strike, and its
  // placeholder store cannot be written. A lenient run publishes the other
  // shards and names the missing store; a strict run stops at it.
  const StudyPlan plan = plan_under_test();
  CoordinatorOptions options = base_options();
  options.max_shard_attempts = 1;
  options.chaos.sticky_kill_substr = flatten_plan(plan)[0].key;
  std::size_t planned = 0;
  for (const SettingTask& task : flatten_plan(plan)) planned += task.config_count;
  std::size_t poisoned = 0;
  for (const SettingTask& task : flatten_plan(shard_plan(plan, 0, options.shards))) {
    poisoned += task.config_count;
  }

  ScratchDir scratch("coord_lenient");
  UnwritableShardStore full_disk("shard-0.omps");
  util::ScopedIoHooks hooks(&full_disk);

  const std::string strict_out = scratch.file("strict.omps");
  options.work_dir = scratch.file("strict");
  Coordinator strict(model_factory(), options);
  EXPECT_THROW(strict.run(plan, strict_out), util::StoreOpenError);
  EXPECT_FALSE(util::file_exists(strict_out));

  options.lenient = true;
  options.work_dir = scratch.file("lenient");
  const std::string out = scratch.file("lenient.omps");
  Coordinator coordinator(model_factory(), options);
  const CoordinatorReport& report = coordinator.run(plan, out);
  EXPECT_EQ(report.quarantine_store_failures, 1u);
  ASSERT_EQ(report.quarantined_shards.size(), 1u);
  EXPECT_EQ(report.quarantined_shards[0].shard, 0u);
  ASSERT_EQ(report.compaction.skipped_inputs.size(), 1u);
  EXPECT_NE(report.compaction.skipped_inputs[0].path.find("shard-0.omps"),
            std::string::npos);
  const Dataset published = Dataset::load_store(out);
  EXPECT_EQ(published.size() + poisoned, planned);
  EXPECT_EQ(report.compaction.samples_out, published.size());
  EXPECT_EQ(published.quarantined_count(), 0u);
}

}  // namespace
}  // namespace omptune::sweep
