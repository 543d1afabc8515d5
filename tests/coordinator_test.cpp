// Multi-host coordinator tests. The core guarantees under test:
//
//  1. Equivalence: a coordinated study (any host/shard split) produces the
//     CSV-canonical identical dataset to the single-process harness, and
//     publishes a byte-stable compacted store.
//  2. Containment: host agents SIGKILLed, wedged, truncating their shard
//     stores, or double-delivering at deterministic chaos points never
//     change the published store — it stays byte-identical to a fault-free
//     run's (the property CI cmp's).
//  3. Durability: the coordinator's write-ahead lease table survives a kill
//     mid-lease (--resume completes to the identical store), and the tiered
//     compactor survives a kill mid-compaction (intermediates are reused,
//     torn ones rebuilt).
//  4. Evidence: a shard that kills every holder exhausts its attempt cap
//     and quarantines with the termination signal on record, gated by
//     deterministic decorrelated-jitter backoff.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/executor.hpp"
#include "sim/fault_runner.hpp"
#include "store/tiered.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/harness.hpp"
#include "sweep/lease.hpp"
#include "sweep/sharding.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace omptune::sweep {
namespace {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("omptune_test_" + tag + "_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return util::path_join(path_, name);
  }

 private:
  std::string path_;
};

constexpr int kReps = 2;
constexpr std::uint64_t kSeed = 5;

StudyPlan plan_under_test() { return StudyPlan::mini_plan(2, 6); }

std::string canonical_csv(const Dataset& dataset) {
  std::ostringstream os;
  dataset.to_csv().write(os);
  return os.str();
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

// ---- tiered compaction ------------------------------------------------------

class TieredFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    scratch_ = std::make_unique<ScratchDir>("tiered");
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

TEST_F(TieredFixture, FanInNeverChangesTheOutputBytes) {
  const std::string narrow = scratch_->file("narrow.omps");
  const std::string wide = scratch_->file("wide.omps");
  store::TieredOptions narrow_options;
  narrow_options.fan_in = 2;  // 5 inputs: 3 levels of merging
  const store::TieredReport narrow_report =
      store::tiered_compact(inputs_, narrow, narrow_options);
  store::TieredOptions wide_options;
  wide_options.fan_in = 16;  // one flat merge
  const store::TieredReport wide_report =
      store::tiered_compact(inputs_, wide, wide_options);

  EXPECT_GT(narrow_report.tiers, wide_report.tiers);
  EXPECT_EQ(narrow_report.samples_in, total_samples_);
  EXPECT_EQ(narrow_report.samples_out, total_samples_);
  EXPECT_EQ(narrow_report.duplicates_dropped, 0u);
  EXPECT_EQ(store_bytes(narrow), store_bytes(wide))
      << "tier structure leaked into the output";
}

TEST_F(TieredFixture, DuplicateShardStoresDedupeToTheSingleStore) {
  // The same shard delivered twice (a re-submitted batch job): the merge
  // must keep one copy and the bytes must match the non-duplicated merge.
  const std::string once = scratch_->file("once.omps");
  const std::string twice = scratch_->file("twice.omps");
  store::tiered_compact({inputs_[0]}, once);
  store::TieredReport report;
  report = store::tiered_compact({inputs_[0], inputs_[0]}, twice);
  EXPECT_GT(report.duplicates_dropped, 0u);
  EXPECT_EQ(store_bytes(once), store_bytes(twice));
}

TEST_F(TieredFixture, StrictModeNamesTheCorruptInput) {
  truncate_file(inputs_[3]);
  const std::string out = scratch_->file("out.omps");
  try {
    store::tiered_compact(inputs_, out);
    FAIL() << "corrupt input must abort a strict compaction";
  } catch (const util::DataCorruptionError& error) {
    EXPECT_NE(error.file().find("in3.omps"), std::string::npos) << error.file();
  }
}

TEST_F(TieredFixture, LenientModeSkipsTheCorruptInput) {
  const Dataset dropped = Dataset::load_store(inputs_[3]);
  truncate_file(inputs_[3]);
  const std::string out = scratch_->file("out.omps");
  store::TieredOptions options;
  options.lenient = true;
  const store::TieredReport report =
      store::tiered_compact(inputs_, out, options);
  EXPECT_EQ(report.skipped_inputs, 1u);
  EXPECT_EQ(report.samples_out, total_samples_ - dropped.size());
}

TEST_F(TieredFixture, KillMidCompactionResumesToIdenticalBytes) {
  const std::string out = scratch_->file("out.omps");
  store::TieredOptions options;
  options.fan_in = 2;
  options.scratch_dir = scratch_->file("tiers");
  options.keep_scratch = true;
  store::tiered_compact(inputs_, out, options);
  const std::string reference = store_bytes(out);

  // Simulate a compactor killed after the first level: the published store
  // is gone (never made it), one intermediate is torn mid-write, the rest
  // survived. The re-run must adopt the valid intermediates, rebuild the
  // torn one, and publish the identical bytes.
  util::remove_file(out);
  std::vector<std::string> intermediates = util::list_files(options.scratch_dir);
  ASSERT_GT(intermediates.size(), 1u);
  std::sort(intermediates.begin(), intermediates.end());
  truncate_file(util::path_join(options.scratch_dir, intermediates.front()));

  const store::TieredReport resumed =
      store::tiered_compact(inputs_, out, options);
  EXPECT_GT(resumed.reused_intermediates, 0u);
  EXPECT_EQ(store_bytes(out), reference);
}

// ---- coordinator equivalence ------------------------------------------------

TEST(Coordinator, MatchesSingleProcessRun) {
  const StudyPlan plan = plan_under_test();
  ScratchDir scratch("coord_equiv");
  const std::string out = scratch.file("study.omps");
  CoordinatorOptions options = base_options();
  options.hosts = 3;
  Coordinator coordinator(model_factory(), options);
  const Dataset dataset = coordinator.run(plan, out);
  const CoordinatorReport& report = coordinator.report();

  EXPECT_EQ(canonical_csv(dataset), reference_csv(plan));
  EXPECT_EQ(report.shards_total, 4u);
  EXPECT_EQ(report.shards_completed, report.shards_total);
  EXPECT_EQ(report.host_crashes, 0u);
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.store_path, out);
  // A private work directory is removed after a completed run.
  EXPECT_TRUE(report.work_dir.empty());
  EXPECT_EQ(Dataset::load_store(out).size(), dataset.size());
}

TEST(Coordinator, EmptyPlanPublishesEmptyStore) {
  ScratchDir scratch("coord_empty");
  const std::string out = scratch.file("empty.omps");
  Coordinator coordinator(model_factory(), base_options());
  EXPECT_EQ(coordinator.run(StudyPlan{}, out).size(), 0u);
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
  const Dataset dataset = chaos_run.run(plan, chaotic);
  const CoordinatorReport& report = chaos_run.report();

  EXPECT_GT(report.host_crashes + report.hang_kills + report.truncated_stores +
                report.duplicate_deliveries + report.re_leases,
            0u)
      << "chaos spec fired no faults; the test is vacuous";
  EXPECT_TRUE(report.quarantined_shards.empty());
  EXPECT_EQ(canonical_csv(dataset), reference_csv(plan));
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
  const Dataset dataset = second.run(plan, resumed);
  EXPECT_FALSE(second.report().interrupted);
  EXPECT_EQ(second.report().shards_resumed, first.report().shards_completed);
  EXPECT_EQ(canonical_csv(dataset), reference_csv(plan));
  EXPECT_EQ(store_bytes(clean), store_bytes(resumed));
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
  const Dataset dataset = coordinator.run(plan, out);
  const CoordinatorReport& report = coordinator.report();

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
  EXPECT_EQ(dataset.size(), harness.run_study(plan).size());
  EXPECT_GT(dataset.quarantined_count(), 0u);
  const Dataset stored = Dataset::load_store(out);
  EXPECT_EQ(stored.quarantined_count(), dataset.quarantined_count());
  for (const Sample& s : stored.samples()) {
    if (!s.is_quarantined()) continue;
    EXPECT_NE(s.error.find("signal 9"), std::string::npos) << s.error;
  }
}

}  // namespace
}  // namespace omptune::sweep
