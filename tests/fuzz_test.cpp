// Property/fuzz tests over randomized inputs: configuration round trips
// through the process environment, random task trees against serial
// reference counts, random loop bounds through every scheduler, and random
// datasets through the analysis plumbing. Every case is seeded, so
// failures reproduce deterministically.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <sstream>

#include "analysis/speedup.hpp"
#include "arch/cpu_arch.hpp"
#include "rt/schedule.hpp"
#include "rt/thread_team.hpp"
#include "serve/wire.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "sweep/config_space.hpp"
#include "sweep/harness.hpp"
#include "sim/storage_chaos.hpp"
#include "sweep/journal.hpp"
#include "sweep/lease.hpp"
#include "util/env.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/io_hooks.hpp"
#include "util/rng.hpp"

namespace omptune {
namespace {

using arch::ArchId;
using arch::architecture;

rt::RtConfig random_config(util::Xoshiro256& rng, const arch::CpuArch& cpu) {
  const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);
  rt::RtConfig config;
  config.num_threads = 1 + static_cast<int>(rng.uniform_index(8));
  config.places = space.places[rng.uniform_index(space.places.size())];
  config.bind = space.binds[rng.uniform_index(space.binds.size())];
  config.schedule = space.schedules[rng.uniform_index(space.schedules.size())];
  config.chunk = static_cast<int>(rng.uniform_index(4)) * 3;  // 0,3,6,9
  config.library = space.libraries[rng.uniform_index(space.libraries.size())];
  config.blocktime_ms = space.blocktimes_ms[rng.uniform_index(space.blocktimes_ms.size())];
  config.reduction = space.reductions[rng.uniform_index(space.reductions.size())];
  config.align_alloc = space.aligns[rng.uniform_index(space.aligns.size())];
  return config;
}

class ConfigEnvFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ConfigEnvFuzz, RandomConfigsRoundTripThroughTheEnvironment) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 3);
  const auto& cpu = architecture(ArchId::Milan);
  for (int i = 0; i < 25; ++i) {
    const rt::RtConfig original = random_config(rng, cpu);
    const util::ScopedEnv env(original.to_env(cpu));
    const rt::RtConfig parsed = rt::RtConfig::from_env(cpu);
    EXPECT_EQ(parsed, original) << original.key();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigEnvFuzz, ::testing::Range(0, 8));

class ScheduleFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleFuzz, RandomBoundsAlwaysPartitionExactly) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 104729u + 1);
  for (int i = 0; i < 40; ++i) {
    const auto kind = static_cast<rt::ScheduleKind>(rng.uniform_index(4));
    const int chunk = static_cast<int>(rng.uniform_index(20));
    const auto lo = static_cast<std::int64_t>(rng.uniform_index(1000)) - 500;
    const auto len = static_cast<std::int64_t>(rng.uniform_index(3000));
    const int team = 1 + static_cast<int>(rng.uniform_index(7));

    rt::LoopScheduler sched(kind, chunk, lo, lo + len, team);
    std::int64_t covered = 0;
    std::int64_t min_seen = lo + len, max_seen = lo;
    for (int t = 0; t < team; ++t) {
      while (const auto slice = sched.next(t)) {
        covered += slice->size();
        min_seen = std::min(min_seen, slice->begin);
        max_seen = std::max(max_seen, slice->end);
      }
    }
    ASSERT_EQ(covered, len) << "kind=" << static_cast<int>(kind)
                            << " chunk=" << chunk << " lo=" << lo
                            << " len=" << len << " team=" << team;
    if (len > 0) {
      ASSERT_EQ(min_seen, lo);
      ASSERT_EQ(max_seen, lo + len);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz, ::testing::Range(0, 8));

// ---- random task trees ------------------------------------------------------

/// Deterministic irregular tree: child count derived from the node id.
int children_of(std::uint64_t node, std::uint64_t seed, int depth) {
  if (depth >= 6) return 0;
  return static_cast<int>(util::hash_combine(seed, node) % 4u);  // 0..3
}

long count_serial(std::uint64_t node, std::uint64_t seed, int depth) {
  long total = 1;
  const int kids = children_of(node, seed, depth);
  for (int k = 0; k < kids; ++k) {
    total += count_serial(node * 4 + 1 + static_cast<std::uint64_t>(k), seed, depth + 1);
  }
  return total;
}

void count_tasks(rt::TeamContext& ctx, std::uint64_t node, std::uint64_t seed,
                 int depth, std::atomic<long>& total) {
  total.fetch_add(1, std::memory_order_relaxed);
  const int kids = children_of(node, seed, depth);
  for (int k = 0; k < kids; ++k) {
    const std::uint64_t child = node * 4 + 1 + static_cast<std::uint64_t>(k);
    ctx.spawn([&ctx, child, seed, depth, &total] {
      count_tasks(ctx, child, seed, depth + 1, total);
    });
  }
  if (kids > 0) ctx.taskwait();
}

class TaskTreeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TaskTreeFuzz, RandomTreesVisitEveryNodeExactlyOnce) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17;
  const long expected = count_serial(0, seed, 0);

  rt::RtConfig config = rt::RtConfig::defaults_for(architecture(ArchId::Skylake));
  config.num_threads = 3;
  config.blocktime_ms = 0;
  rt::ThreadTeam team(architecture(ArchId::Skylake), config);
  std::atomic<long> total{0};
  team.parallel([&](rt::TeamContext& ctx) {
    ctx.run_task_root([&ctx, seed, &total] { count_tasks(ctx, 0, seed, 0, total); });
  });
  EXPECT_EQ(total.load(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaskTreeFuzz, ::testing::Range(0, 10));

// ---- random datasets through the analysis plumbing -------------------------

TEST(DatasetFuzz, BestPerSettingInvariantsOnRandomData) {
  util::Xoshiro256 rng(99);
  sweep::Dataset dataset;
  const char* archs[] = {"a64fx", "milan", "skylake"};
  const char* apps[] = {"cg", "mg", "nqueens"};
  for (int i = 0; i < 2000; ++i) {
    sweep::Sample s;
    s.arch = archs[rng.uniform_index(3)];
    s.app = apps[rng.uniform_index(3)];
    s.input = rng.uniform() < 0.5 ? "small" : "large";
    s.threads = 8;
    s.mean_runtime = rng.uniform(0.1, 10.0);
    s.default_runtime = 1.0;
    s.speedup = s.default_runtime / s.mean_runtime;
    dataset.add(s);
  }
  const auto bests = analysis::best_per_setting(store::StoreReader(dataset));
  EXPECT_LE(bests.size(), 18u);  // 3 archs x 3 apps x 2 inputs
  for (const auto& b : bests) {
    // The reported best config must actually attain the best speedup.
    double max_speedup = 0.0;
    for (const auto& s : dataset.samples()) {
      if (s.arch == b.arch && s.app == b.app && s.input == b.input) {
        max_speedup = std::max(max_speedup, s.speedup);
      }
    }
    EXPECT_DOUBLE_EQ(b.best_speedup, max_speedup);
  }
}

// ---- wire protocol fuzz -----------------------------------------------------
//
// The serving wire decoder faces bytes from the network, including bytes a
// chaos proxy garbled mid-frame. Whatever arrives, the contract is: parse,
// or throw serve::WireError — never crash, never hang, never read past the
// payload.

class WireFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzz, RandomPayloadsDecodeOrThrowTypedWireError) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7127u + 5);
  for (int i = 0; i < 400; ++i) {
    std::string payload;
    const std::size_t len = rng.uniform_index(96);
    for (std::size_t b = 0; b < len; ++b) {
      payload += static_cast<char>(rng.uniform_index(256));
    }
    try {
      (void)serve::decode_request(payload);
    } catch (const serve::WireError&) {
      // the only acceptable failure mode
    }
    try {
      (void)serve::decode_response(payload);
    } catch (const serve::WireError&) {
    }
  }
}

TEST_P(WireFuzz, MutatedValidFramesNeverEscapeTheTaxonomy) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 9473u + 11);

  serve::Response pristine;
  pristine.type = serve::MsgType::RecommendReply;
  pristine.generation = 3;
  pristine.found = true;
  pristine.speedup = 1.4;
  pristine.config_key = "OMP_PLACES=cores OMP_PROC_BIND=close";
  pristine.variable_priority = {"OMP_PLACES", "KMP_BLOCKTIME"};
  std::string frame;
  serve::encode_response(frame, pristine);

  for (int i = 0; i < 300; ++i) {
    std::string mutated = frame;
    if (rng.uniform() < 0.5) {
      mutated.resize(rng.uniform_index(mutated.size() + 1));  // truncation
    } else {
      const std::size_t at = rng.uniform_index(mutated.size());
      mutated[at] = static_cast<char>(rng.uniform_index(256));  // garble
    }
    // frame_size: returns the frame length, 0 (incomplete), or throws on a
    // declared length past the cap — crucially BEFORE anything allocates.
    std::size_t total = 0;
    try {
      total = serve::frame_size(mutated);
    } catch (const serve::WireError&) {
      continue;
    }
    if (total == 0 || mutated.size() < total) continue;  // would block on recv
    try {
      (void)serve::decode_response(std::string_view(mutated).substr(4, total - 4));
    } catch (const serve::WireError&) {
      // typed rejection, connection would be abandoned — fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range(0, 6));

// ---- journal / dataset CSV corruption fuzz ---------------------------------

/// A crash mid-append can leave a journal entry truncated at any byte, or
/// (disk/firmware faults) with garbled bytes. Loading such an entry must
/// either succeed with ALL samples intact or throw the taxonomy's
/// data-corruption error — never UB, never a silently shorter dataset.
class JournalCorruptionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(JournalCorruptionFuzz, TruncatedOrGarbledEntriesNeverLoseSamplesSilently) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 6151u + 13);

  // One pristine journal entry to mutilate.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_fuzz_journal_" + std::to_string(::getpid()) + "_" +
        std::to_string(GetParam())))
          .string();
  std::filesystem::remove_all(dir);
  sweep::StudyJournal journal(dir);
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 2, 3);
  const auto& cpu = architecture(ArchId::Milan);
  sweep::StudySetting setting{&apps::find_application("xsbench"),
                              apps::find_application("xsbench").default_input(),
                              48};
  const std::size_t count = 15;
  journal.record("fuzz", harness.run_setting(cpu, setting, count));
  const std::string pristine = util::read_file(journal.entry_path("fuzz")).value();

  for (int i = 0; i < 40; ++i) {
    std::string mutated = pristine;
    if (rng.uniform() < 0.5) {
      // Truncate at a random byte (crash mid-append).
      mutated.resize(rng.uniform_index(mutated.size() + 1));
    } else {
      // Garble a random run of bytes.
      const std::size_t at = rng.uniform_index(mutated.size());
      const std::size_t len =
          std::min<std::size_t>(1 + rng.uniform_index(24), mutated.size() - at);
      for (std::size_t b = 0; b < len; ++b) {
        mutated[at + b] = static_cast<char>(rng.uniform_index(256));
      }
    }
    util::atomic_write_file(journal.entry_path("fuzz"), mutated);
    try {
      const sweep::Dataset loaded = journal.load("fuzz", count);
      // Success is only acceptable with every sample present and finite.
      ASSERT_EQ(loaded.size(), count);
      for (const auto& s : loaded.samples()) {
        ASSERT_TRUE(std::isfinite(s.mean_runtime));
        ASSERT_TRUE(std::isfinite(s.speedup));
      }
    } catch (const util::DataCorruptionError&) {
      // The only acceptable failure mode.
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalCorruptionFuzz, ::testing::Range(0, 4));

/// At-rest bit rot on the READ path, injected through the fs hook seam
/// (sim::StorageChaos::after_read flips one deterministic byte per file):
/// every consumer of util::read_file must either absorb the flip with all
/// data intact or fail inside the error taxonomy — never crash, never lose
/// rows silently.
class ReadPathBitRotFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ReadPathBitRotFuzz, JournalLoadsAreTypedOrIntactUnderBitRot) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_fuzz_bitrot_" + std::to_string(::getpid()) + "_" +
        std::to_string(GetParam())))
          .string();
  std::filesystem::remove_all(dir);
  sweep::StudyJournal journal(dir);
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 2, 3);
  const auto& cpu = architecture(ArchId::Milan);
  sweep::StudySetting setting{&apps::find_application("xsbench"),
                              apps::find_application("xsbench").default_input(),
                              48};
  const std::size_t count = 15;
  journal.record("fuzz", harness.run_setting(cpu, setting, count));

  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    sim::StorageFaultPlan plan;
    plan.bitrot_seed = seed * 1000003u + static_cast<std::uint64_t>(GetParam());
    sim::StorageChaos chaos(plan);
    util::ScopedIoHooks scope(&chaos);
    try {
      const sweep::Dataset loaded = journal.load("fuzz", count);
      // A flip in a value field can parse to a different number; what it
      // must never do is change the row count or produce non-finite data
      // without a typed error.
      ASSERT_EQ(loaded.size(), count);
    } catch (const util::DataCorruptionError&) {
      // Typed rejection: the expected outcome for structural damage.
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_P(ReadPathBitRotFuzz, LeaseTableStateParsesOrRejectsTypedUnderBitRot) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_fuzz_lease_" + std::to_string(::getpid()) + "_" +
        std::to_string(GetParam())))
          .string();
  std::filesystem::remove_all(dir);
  util::create_directories(dir);
  const std::string state = util::path_join(dir, "coordinator.state");

  sweep::LeaseTable table(6);
  table.at(0).state = sweep::ShardState::Completed;
  table.at(1).state = sweep::ShardState::Quarantined;
  table.at(1).attempts = 3;
  table.at(1).evidence = "host crashed repeatedly";
  table.at(2).state = sweep::ShardState::Leased;
  util::atomic_write_file(state, table.serialize());

  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::StorageFaultPlan plan;
    plan.bitrot_seed = seed * 777767u + static_cast<std::uint64_t>(GetParam());
    sim::StorageChaos chaos(plan);
    util::ScopedIoHooks scope(&chaos);
    const std::optional<std::string> text = util::read_file(state);
    ASSERT_TRUE(text.has_value());
    try {
      const sweep::LeaseTable parsed = sweep::LeaseTable::parse(*text);
      // A flip confined to an evidence string or a digit can still parse;
      // the structure must survive intact when it does.
      ASSERT_EQ(parsed.size(), table.size());
    } catch (const util::DataCorruptionError&) {
      // Typed rejection is the other acceptable outcome.
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadPathBitRotFuzz, ::testing::Range(0, 3));

TEST(DatasetCsvFuzz, RoundTripSurvivesAndCorruptionIsTyped) {
  // Dataset::load_csv_file normalizes every parse failure (bad quoting,
  // short rows, non-numeric cells, non-finite values) to
  // util::DataCorruptionError.
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 2, 3);
  const auto& cpu = architecture(ArchId::A64FX);
  sweep::StudySetting setting{
      &apps::find_application("nqueens"),
      apps::find_application("nqueens").input_sizes().front(), 0};
  const sweep::Dataset dataset = harness.run_setting(cpu, setting, 20);

  std::ostringstream os;
  dataset.to_csv().write(os);
  const std::string text = os.str();

  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("omptune_fuzz_csv_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  util::create_directories(dir);
  const std::string path = util::path_join(dir, "d.csv");

  // Pristine file round-trips.
  util::atomic_write_file(path, text);
  EXPECT_EQ(sweep::Dataset::load_csv_file(path).size(), dataset.size());

  util::Xoshiro256 rng(1234);
  int rejected = 0;
  for (int i = 0; i < 60; ++i) {
    std::string mutated = text;
    const std::size_t at = rng.uniform_index(mutated.size());
    if (rng.uniform() < 0.4) {
      mutated.resize(at);
    } else {
      mutated[at] = static_cast<char>(rng.uniform_index(256));
    }
    util::atomic_write_file(path, mutated);
    try {
      const sweep::Dataset loaded = sweep::Dataset::load_csv_file(path);
      for (const auto& s : loaded.samples()) {
        ASSERT_TRUE(std::isfinite(s.mean_runtime));
      }
    } catch (const util::DataCorruptionError& error) {
      ++rejected;
      // Errors must carry the file name for operator forensics.
      EXPECT_NE(std::string(error.what()).find("d.csv"), std::string::npos);
    }
  }
  EXPECT_GT(rejected, 0);  // mutations do get caught, not absorbed
  std::filesystem::remove_all(dir);
}

TEST(DatasetCsvFuzz, ParseErrorsNameFileAndRow) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("omptune_fuzz_row_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  util::create_directories(dir);
  const std::string path = util::path_join(dir, "rows.csv");

  // Row 2 has a bad blocktime; the error must say so, by file and row.
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 1, 3);
  const auto& cpu = architecture(ArchId::Milan);
  sweep::StudySetting setting{&apps::find_application("cg"),
                              apps::find_application("cg").input_sizes().front(),
                              0};
  auto table = harness.run_setting(cpu, setting, 3).to_csv();
  util::CsvTable bad(table.header());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    auto row = table.row(r);
    if (r == 1) row[table.col_index("blocktime")] = "soonish";
    bad.add_row(row);
  }
  std::ostringstream os;
  bad.write(os);
  util::atomic_write_file(path, os.str());

  try {
    sweep::Dataset::load_csv_file(path);
    FAIL() << "expected DataCorruptionError";
  } catch (const util::DataCorruptionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("rows.csv"), std::string::npos) << what;
    EXPECT_NE(what.find("row 2"), std::string::npos) << what;
    EXPECT_NE(what.find("soonish"), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

TEST(DatasetCsvFuzz, NonFiniteNumericFieldsAreRejected) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 1, 3);
  const auto& cpu = architecture(ArchId::Milan);
  sweep::StudySetting setting{&apps::find_application("cg"),
                              apps::find_application("cg").input_sizes().front(),
                              0};
  auto table = harness.run_setting(cpu, setting, 2).to_csv();
  for (const char* poison : {"nan", "inf", "-inf"}) {
    util::CsvTable bad(table.header());
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      auto row = table.row(r);
      if (r == 0) row[table.col_index("speedup")] = poison;
      bad.add_row(row);
    }
    try {
      sweep::Dataset::from_csv(bad, "poisoned.csv");
      FAIL() << "expected rejection of speedup=" << poison;
    } catch (const util::DataCorruptionError& error) {
      EXPECT_NE(std::string(error.what()).find("row 1"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace omptune
