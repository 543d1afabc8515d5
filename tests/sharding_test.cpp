// Sharded collection must be invisible in the data: shards partition the
// plan, a shard store is accepted only when its setting index holds
// exactly its shard's settings, and the shard stores merged by the one
// compaction reproduce the single-run dataset exactly (the paper's
// cluster-batch collection, formalized).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/executor.hpp"
#include "sim/fault_runner.hpp"
#include "store/compact.hpp"
#include "store/reader.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/sharding.hpp"
#include "util/fs.hpp"

#include "scratch_dir.hpp"

namespace omptune::sweep {
namespace {

StudyPlan reduced_plan() {
  StudyPlan plan = StudyPlan::paper_plan();
  for (auto& arch_plan : plan.arch_plans) {
    for (auto& count : arch_plan.configs_per_setting) count = 40;
  }
  return plan;
}

/// Shard `i` of `count`, collected by a fresh runner as its batch job would.
Dataset collect_shard(const StudyPlan& plan, std::size_t i, std::size_t count) {
  sim::ModelRunner runner;
  SweepHarness harness(runner, 2);
  return harness.run_study(shard_plan(plan, i, count));
}

/// Unique directory per test for shard stores, removed on teardown.
/// Save `dataset` as the store `name` in `dir`; returns its path.
std::string write_store(const ScratchDir& dir, const std::string& name,
                        const Dataset& dataset) {
  const std::string path = dir.file(name);
  dataset.save_store(path);
  return path;
}

std::string file_bytes(const std::string& path) {
  const std::optional<std::string> bytes = util::read_file(path);
  EXPECT_TRUE(bytes.has_value()) << path;
  return bytes.value_or("");
}

/// Samples by measurement identity: the merged store holds the shards one
/// after another, not in the plan order of a single run.
std::map<std::string, Sample> by_identity(const Dataset& dataset) {
  std::map<std::string, Sample> samples;
  for (const Sample& sample : dataset.samples()) {
    samples.emplace(sample_identity(sample), sample);
  }
  return samples;
}

TEST(Sharding, ShardsPartitionTheSettings) {
  const StudyPlan plan = reduced_plan();
  std::size_t total_settings = 0;
  for (const auto& arch_plan : plan.arch_plans) {
    total_settings += arch_plan.settings.size();
  }
  std::size_t sharded_settings = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    const StudyPlan shard = shard_plan(plan, i, 5);
    for (const auto& arch_plan : shard.arch_plans) {
      sharded_settings += arch_plan.settings.size();
    }
  }
  EXPECT_EQ(sharded_settings, total_settings);
  EXPECT_THROW(shard_plan(plan, 5, 5), std::invalid_argument);
  EXPECT_THROW(shard_plan(plan, 0, 0), std::invalid_argument);
}

TEST(Sharding, MergedShardsEqualTheUnshardedRun) {
  // The shard stores, merged by the compaction as the coordinator
  // publishes them, hold exactly the single run's samples.
  const StudyPlan plan = reduced_plan();
  ScratchDir scratch("shard_equiv");

  sim::ModelRunner runner;
  SweepHarness single(runner, 2);
  const Dataset reference = single.run_study(plan);

  std::vector<std::string> shard_stores;
  for (std::size_t i = 0; i < 4; ++i) {
    shard_stores.push_back(write_store(scratch, "shard-" + std::to_string(i) + ".omps",
                                       collect_shard(plan, i, 4)));
  }
  const std::string out = scratch.file("merged.omps");
  const store::CompactReport report = store::compact(shard_stores, out);
  EXPECT_EQ(report.duplicates_dropped, 0u);
  EXPECT_EQ(report.samples_out, reference.size());

  const std::map<std::string, Sample> merged =
      by_identity(Dataset::load_store(out));
  const std::map<std::string, Sample> expected = by_identity(reference);
  ASSERT_EQ(merged.size(), expected.size());
  for (const auto& [identity, want] : expected) {
    const auto it = merged.find(identity);
    ASSERT_NE(it, merged.end()) << identity;
    const Sample& got = it->second;
    EXPECT_EQ(got.config, want.config) << identity;
    EXPECT_EQ(got.runtimes, want.runtimes) << identity;  // bit-identical collection
    EXPECT_DOUBLE_EQ(got.speedup, want.speedup) << identity;
  }
}

TEST(Sharding, MergeDetectsMissingAndDedupesDuplicatedSettings) {
  const StudyPlan plan = reduced_plan();
  ScratchDir scratch("shard_dup");

  // Missing: one of two shards is no delivery of the whole plan.
  const Dataset half = collect_shard(plan, 0, 2);
  const std::optional<std::string> missing =
      shard_store_mismatch(plan, store::StoreReader(half));
  ASSERT_TRUE(missing.has_value());
  EXPECT_NE(missing->find("has 0 rows"), std::string::npos) << *missing;

  // Duplicated: the same shard twice. Re-submitted batch jobs are a normal
  // cluster accident, and the duplicates are identical measurements — the
  // merge must dedupe them (reporting the count), not refuse the merge.
  const std::string half_store = write_store(scratch, "half.omps", half);
  const std::string other_store =
      write_store(scratch, "other.omps", collect_shard(plan, 1, 2));
  const std::string twice = scratch.file("twice.omps");
  const store::CompactReport report =
      store::compact({half_store, half_store, other_store}, twice);
  EXPECT_EQ(report.duplicates_dropped, half.size());

  const std::string once = scratch.file("once.omps");
  store::compact({half_store, other_store}, once);
  EXPECT_EQ(file_bytes(twice), file_bytes(once));
  EXPECT_EQ(shard_store_mismatch(plan, store::StoreReader(twice)), std::nullopt);
}

TEST(Sharding, MergePrefersOkOverQuarantinedDuplicates) {
  // When a setting was re-collected after a bad node quarantined it, the
  // clean measurement must win regardless of shard arrival order.
  const StudyPlan plan = StudyPlan::mini_plan(1, 6);
  ScratchDir scratch("shard_prefer");
  const Dataset clean = collect_shard(plan, 0, 1);

  Dataset poisoned;
  for (Sample s : clean.samples()) {
    s.status = SampleStatus::Quarantined;
    s.error = "simulated node failure";
    poisoned.add(std::move(s));
  }
  const std::string clean_store = write_store(scratch, "clean.omps", clean);
  const std::string poisoned_store =
      write_store(scratch, "poisoned.omps", poisoned);
  const std::string clean_only = scratch.file("clean_only.omps");
  store::compact({clean_store}, clean_only);

  for (const auto& inputs : {std::vector<std::string>{poisoned_store, clean_store},
                             std::vector<std::string>{clean_store, poisoned_store}}) {
    const std::string out = scratch.file("merged.omps");
    const store::CompactReport report = store::compact(inputs, out);
    EXPECT_EQ(report.duplicates_dropped, clean.size());
    EXPECT_EQ(report.quarantined, 0u);
    const Dataset merged = Dataset::load_store(out);
    EXPECT_EQ(merged.quarantined_count(), 0u);
    ASSERT_EQ(merged.size(), clean.size());
    EXPECT_EQ(file_bytes(out), file_bytes(clean_only));
  }
}

TEST(Sharding, ShardCountMayExceedSettings) {
  // More shards than settings: the surplus shards are empty plans, and an
  // empty store is their complete delivery.
  const StudyPlan plan = StudyPlan::mini_plan(1, 10);  // 3 settings total
  std::size_t total_settings = 0;
  for (const auto& arch_plan : plan.arch_plans) {
    total_settings += arch_plan.settings.size();
  }
  const std::size_t shard_count = total_settings + 4;

  std::size_t empty_shards = 0;
  std::size_t sharded_settings = 0;
  for (std::size_t i = 0; i < shard_count; ++i) {
    const StudyPlan shard = shard_plan(plan, i, shard_count);
    if (shard.arch_plans.empty()) ++empty_shards;
    for (const auto& arch_plan : shard.arch_plans) {
      sharded_settings += arch_plan.settings.size();
    }
  }
  EXPECT_EQ(empty_shards, shard_count - total_settings);
  EXPECT_EQ(sharded_settings, total_settings);
  EXPECT_EQ(shard_store_mismatch(shard_plan(plan, shard_count - 1, shard_count),
                                 store::StoreReader(Dataset())),
            std::nullopt);
}

TEST(Sharding, StoreMatchingItsShardPlanIsAccepted) {
  const StudyPlan plan = reduced_plan();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(shard_store_mismatch(shard_plan(plan, i, 3),
                                   store::StoreReader(collect_shard(plan, i, 3))),
              std::nullopt)
        << "shard " << i;
  }
}

TEST(Sharding, AnotherShardsStoreIsAMismatch) {
  // The lying host: a complete, valid store — of the wrong shard. Its
  // sample count can match; its settings cannot.
  const StudyPlan plan = StudyPlan::mini_plan(2, 6);
  const std::optional<std::string> flaw = shard_store_mismatch(
      shard_plan(plan, 1, 2), store::StoreReader(collect_shard(plan, 0, 2)));
  ASSERT_TRUE(flaw.has_value());
  EXPECT_NE(flaw->find("0 rows, shard plan expects 6"), std::string::npos)
      << *flaw;
}

TEST(Sharding, MissingOrExtraRowsAreAMismatch) {
  const StudyPlan plan = StudyPlan::mini_plan(1, 6);
  const StudyPlan shard = shard_plan(plan, 0, 1);
  const Dataset full = collect_shard(plan, 0, 1);

  // Torn mid-setting: the last sample is gone.
  Dataset torn;
  for (std::size_t i = 0; i + 1 < full.size(); ++i) {
    torn.add(Sample(full.samples()[i]));
  }
  const std::optional<std::string> short_flaw =
      shard_store_mismatch(shard, store::StoreReader(torn));
  ASSERT_TRUE(short_flaw.has_value());
  EXPECT_NE(short_flaw->find("5 rows, shard plan expects 6"), std::string::npos)
      << *short_flaw;

  // A setting the shard never asked for.
  Dataset extra = full;
  extra.append(collect_shard(StudyPlan::mini_plan(2, 6), 1, 2));
  const std::optional<std::string> extra_flaw =
      shard_store_mismatch(shard, store::StoreReader(extra));
  ASSERT_TRUE(extra_flaw.has_value());
  EXPECT_NE(extra_flaw->find("not in the shard plan"), std::string::npos)
      << *extra_flaw;
}

TEST(Sharding, CoordinatorMergeNamesTheShardThatLied) {
  // A shard store that lies — complete and valid, but another shard's —
  // is struck at delivery, and the strike names the shard and the setting
  // its store got wrong, so an operator can tell which host lied.
  const StudyPlan plan = StudyPlan::mini_plan(1, 6);
  ScratchDir scratch("shard_lied");
  CoordinatorOptions options;
  options.hosts = 1;
  options.shards = 2;
  options.repetitions = 2;
  options.heartbeat_timeout_ms = 8000;
  options.backoff.base_ms = 1;
  options.backoff.max_ms = 50;
  options.work_dir = scratch.file("coord");
  const RunnerFactory model = [] { return std::make_unique<sim::ModelRunner>(); };
  const std::string clean = scratch.file("clean.omps");
  Coordinator first(model, options);
  first.run(plan, clean);

  const std::string shards = util::path_join(options.work_dir, "shards");
  std::filesystem::copy_file(util::path_join(shards, "shard-0.omps"),
                             util::path_join(shards, "shard-1.omps"),
                             std::filesystem::copy_options::overwrite_existing);
  options.resume = true;
  std::vector<std::string> messages;
  options.progress = [&messages](const std::string& m) { messages.push_back(m); };
  Coordinator second(model, options);
  const std::string out = scratch.file("out.omps");
  const CoordinatorReport& report = second.run(plan, out);

  const StudyPlan shard1 = shard_plan(plan, 1, 2);
  const std::string lied_setting = setting_key(
      arch::architecture(shard1.arch_plans[0].arch).name,
      shard1.arch_plans[0].settings[0]);
  std::size_t strikes = 0;
  for (const std::string& message : messages) {
    if (message.find("failed validation") == std::string::npos) continue;
    ++strikes;
    EXPECT_EQ(message.rfind("shard-1 ", 0), 0u) << message;
    EXPECT_NE(message.find("'" + lied_setting + "' has 0 rows"), std::string::npos)
        << message;
  }
  EXPECT_EQ(strikes, 1u);
  EXPECT_EQ(report.re_leases, 1u);
  EXPECT_EQ(file_bytes(out), file_bytes(clean));
}

TEST(Sharding, CoordinatorMergeLenientSkipsWithWarning) {
  // A lenient merge drops a torn shard store whole, warns naming it, and
  // publishes the rest exactly as if that shard had never been offered.
  const StudyPlan plan = StudyPlan::mini_plan(1, 6);
  ScratchDir scratch("shard_lenient");
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < 3; ++i) {
    inputs.push_back(write_store(scratch, "shard-" + std::to_string(i) + ".omps",
                                 collect_shard(plan, i, 3)));
  }
  const std::string without = scratch.file("without.omps");
  store::compact({inputs[0], inputs[2]}, without);

  const std::string torn = file_bytes(inputs[1]);
  util::atomic_write_file(inputs[1], torn.substr(0, torn.size() / 2));
  store::CompactOptions options;
  options.lenient = true;
  std::vector<std::string> warnings;
  options.progress = [&warnings](const std::string& line) {
    if (line.find("skipping") != std::string::npos) warnings.push_back(line);
  };
  const std::string out = scratch.file("out.omps");
  const store::CompactReport report = store::compact(inputs, out, options);
  ASSERT_EQ(report.skipped_inputs.size(), 1u);
  EXPECT_EQ(report.skipped_inputs[0].path, inputs[1]);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("shard-1.omps"), std::string::npos) << warnings[0];
  EXPECT_EQ(file_bytes(out), file_bytes(without));
}

TEST(Sharding, MergeCarriesQuarantinedSamplesAndReportsThem) {
  const StudyPlan plan = StudyPlan::mini_plan(2, 8);
  ScratchDir scratch("shard_quarantine");

  std::vector<std::string> inputs;
  std::size_t quarantined_in = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    sim::ModelRunner inner;
    sim::FaultSpec spec;
    spec.seed = 17;
    spec.crash_rate = i == 1 ? 0.04 : 0.0;  // only shard 1 is on a bad node
    spec.sticky = true;
    sim::FaultInjectingRunner runner(inner, spec);
    SweepHarness harness(runner, 2);
    StudyRunOptions options;
    options.resilient = true;
    options.resilience.max_retries = 1;
    const Dataset shard = harness.run_study(shard_plan(plan, i, 3), options);
    quarantined_in += shard.quarantined_count();
    // Quarantined placeholders count toward the plan: the shard is complete.
    EXPECT_EQ(shard_store_mismatch(shard_plan(plan, i, 3), store::StoreReader(shard)),
              std::nullopt)
        << "shard " << i;
    inputs.push_back(write_store(scratch, "shard-" + std::to_string(i) + ".omps",
                                 shard));
  }
  ASSERT_GT(quarantined_in, 0u) << "fault injection produced no quarantine";

  const std::string out = scratch.file("merged.omps");
  const store::CompactReport report = store::compact(inputs, out);
  const Dataset merged = Dataset::load_store(out);
  EXPECT_EQ(merged.quarantined_count(), quarantined_in);
  EXPECT_EQ(report.quarantined, quarantined_in);
  EXPECT_EQ(report.samples_out, merged.size());
}

}  // namespace
}  // namespace omptune::sweep
