// The published form against the CSV text it replaces. Journal entries are
// .omps stores holding Dataset::publish()'s values, which must be exactly
// what a CSV entry read back as: util::round_fixed_double against
// write_fixed_double -> parse_double, and publish() against
// from_csv_text(csv_text()), field for field with bit-exact doubles. A
// study must then publish the same bytes however it ran: unjournaled,
// uninterrupted, resumed, or by worker processes. Journals written with
// CSV entries fail loudly or are recollected, never silently skipped.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/executor.hpp"
#include "sim/fault_runner.hpp"
#include "sim/storage_chaos.hpp"
#include "store/compact.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "sweep/harness.hpp"
#include "sweep/journal.hpp"
#include "sweep/supervisor.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/io_hooks.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace omptune {
namespace {

using sweep::Dataset;
using sweep::Sample;
using sweep::SampleStatus;

constexpr int kReps = 2;
constexpr std::uint64_t kSeed = 5;

std::string temp_dir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_published_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  util::create_directories(dir);
  return dir;
}

/// The text path: what the CSV encoder prints, parsed back.
double through_text(double value, int precision) {
  return *util::parse_double(util::format_double(value, precision));
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Bit-exact agreement of the kernel and the text path, with the failing
/// value in the message.
void expect_rounds_like_text(double value, int precision) {
  const double kernel = util::round_fixed_double(value, precision);
  const double text = through_text(value, precision);
  ASSERT_EQ(bits(kernel), bits(text))
      << "value " << util::format_double(value, 25) << " (bits " << std::hex
      << bits(value) << std::dec << ") at " << precision << " decimals: kernel "
      << util::format_double(kernel, 17) << ", text "
      << util::format_double(text, 17);
}

// ---- the quantiser ---------------------------------------------------------

TEST(RoundFixedDouble, MatchesTheTextOnTenMillionValues) {
  // Log-uniform magnitudes over [1e-12, 1e6], either sign, full mantissas.
  util::Xoshiro256 rng(0x5eed);
  for (int i = 0; i < 10'000'000; ++i) {
    const double magnitude = std::pow(10.0, -12.0 + 18.0 * rng.uniform());
    const double value = rng.uniform() < 0.5 ? -magnitude : magnitude;
    expect_rounds_like_text(value, 9);
    expect_rounds_like_text(value, 6);
  }
}

TEST(RoundFixedDouble, ExactTiesAndTheirNeighbours) {
  // value * 10^k is a half-integer exactly when value = odd / 2^(k+1): the
  // true ties, which round half to even. Their nextafter neighbours lie a
  // hair to either side, where the scaled product can still round onto the
  // tie and only the sign of its error decides.
  util::Xoshiro256 rng(17);
  for (const int precision : {9, 6}) {
    const double unit = std::ldexp(1.0, -(precision + 1));
    for (int i = 0; i < 200'000; ++i) {
      // Odd numerators of every bit length: small ones put the scaled tie
      // near 0.5, where the product's rounding error can be below 2^-54.
      const std::uint64_t span = std::uint64_t{1} << rng.uniform_index(31);
      const double odd = static_cast<double>(2 * rng.uniform_index(span) + 1);
      const double tie = (i % 2 == 0 ? odd : -odd) * unit;
      double below = tie;
      double above = tie;
      expect_rounds_like_text(tie, precision);
      for (int step = 0; step < 3; ++step) {
        below = std::nextafter(below, -std::numeric_limits<double>::infinity());
        above = std::nextafter(above, std::numeric_limits<double>::infinity());
        expect_rounds_like_text(below, precision);
        expect_rounds_like_text(above, precision);
      }
    }
    // Decimal ties n + 0.5 ulps of the last printed digit, as the nearest
    // double and its neighbours.
    const double scale = std::pow(10.0, precision);
    for (int i = 0; i < 200'000; ++i) {
      const std::uint64_t span = std::uint64_t{1} << rng.uniform_index(32);
      const double n = static_cast<double>(rng.uniform_index(span));
      double value = (n + 0.5) / scale;
      expect_rounds_like_text(value, precision);
      expect_rounds_like_text(-value, precision);
      for (int step = 0; step < 2; ++step) {
        value = std::nextafter(value, 0.0);
        expect_rounds_like_text(value, precision);
      }
    }
  }
}

TEST(RoundFixedDouble, SignedZerosTinyAndLargeValues) {
  for (const int precision : {9, 6}) {
    for (const double value :
         {0.0, -0.0, 1e-300, -1e-300, 4e-10, -4e-10, 5e-10, -5e-10,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min()}) {
      expect_rounds_like_text(value, precision);
    }
    // At and above 2^52 / 10^k the kernel hands over to the text.
    const double threshold = std::ldexp(1.0, 52) / std::pow(10.0, precision);
    double value = threshold;
    for (int step = 0; step < 64; ++step) {
      value = std::nextafter(value, 0.0);
    }
    util::Xoshiro256 rng(3);
    for (int i = 0; i < 20'000; ++i) {
      const double large = threshold * std::pow(10.0, 12.0 * rng.uniform());
      expect_rounds_like_text(large, precision);
      expect_rounds_like_text(-large, precision);
      value = std::nextafter(value, std::numeric_limits<double>::infinity());
      expect_rounds_like_text(value, precision);
    }
    expect_rounds_like_text(std::numeric_limits<double>::max(), precision);
    expect_rounds_like_text(-std::numeric_limits<double>::max(), precision);
  }
  EXPECT_TRUE(std::signbit(util::round_fixed_double(-0.0, 9)));
  EXPECT_TRUE(std::signbit(util::round_fixed_double(-1e-12, 9)));
  EXPECT_FALSE(std::signbit(util::round_fixed_double(0.0, 9)));
}

// ---- publish() against the CSV read-back ------------------------------------

void expect_same_sample(const Sample& a, const Sample& b, std::size_t row) {
  SCOPED_TRACE("row " + std::to_string(row));
  EXPECT_EQ(a.arch, b.arch);
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.suite, b.suite);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.input, b.input);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_TRUE(a.config == b.config);
  ASSERT_EQ(a.runtimes.size(), b.runtimes.size());
  for (std::size_t r = 0; r < a.runtimes.size(); ++r) {
    EXPECT_EQ(bits(a.runtimes[r]), bits(b.runtimes[r])) << "runtime " << r;
  }
  EXPECT_EQ(bits(a.mean_runtime), bits(b.mean_runtime));
  EXPECT_EQ(bits(a.default_runtime), bits(b.default_runtime));
  EXPECT_EQ(bits(a.speedup), bits(b.speedup));
  EXPECT_EQ(a.is_default, b.is_default);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.error, b.error);
}

/// publish(batch) must equal from_csv_text(batch.csv_text()), and the
/// journal must hand a recorded published batch back unchanged.
void expect_publishes_like_csv(const Dataset& batch) {
  const Dataset read_back = Dataset::from_csv_text(batch.csv_text());
  Dataset published = batch;
  published.publish();
  ASSERT_EQ(published.size(), read_back.size());
  for (std::size_t i = 0; i < published.size(); ++i) {
    expect_same_sample(published.samples()[i], read_back.samples()[i], i);
  }
  // Publishing is idempotent: a published batch is its own CSV read-back.
  Dataset again = published;
  again.publish();
  EXPECT_EQ(store::serialize_store(again), store::serialize_store(published));

  const std::string dir = temp_dir("roundtrip");
  const sweep::StudyJournal journal(dir);
  journal.record("batch", published);
  const Dataset loaded = journal.load("batch", batch.size());
  ASSERT_EQ(loaded.size(), read_back.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    expect_same_sample(loaded.samples()[i], read_back.samples()[i], i);
  }
  std::filesystem::remove_all(dir);
}

TEST(PublishedForm, MiniPlanBatchesEqualTheirCsvReadBack) {
  const sweep::StudyPlan plan = sweep::StudyPlan::mini_plan(3, 12);
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 4, 11);
  for (const sweep::ArchPlan& arch_plan : plan.arch_plans) {
    const arch::CpuArch& cpu = arch::architecture(arch_plan.arch);
    for (std::size_t i = 0; i < arch_plan.settings.size(); ++i) {
      expect_publishes_like_csv(harness.run_setting(
          cpu, arch_plan.settings[i], arch_plan.configs_per_setting[i]));
    }
  }
  // The whole study as one batch, too.
  expect_publishes_like_csv(harness.run_study(plan));
}

TEST(PublishedForm, ResilientBatchesWithRetriedAndQuarantinedSamples) {
  sim::ModelRunner inner;
  sim::FaultSpec spec;
  spec.seed = 21;
  spec.crash_rate = 0.2;  // one retry: some recover, some quarantine
  spec.nan_rate = 0.1;
  sim::FaultInjectingRunner runner(inner, spec);
  sweep::SweepHarness harness(runner, 3, 5);
  sweep::StudyRunOptions options;
  options.resilient = true;
  options.resilience.max_retries = 1;
  const Dataset dataset =
      harness.run_study(sweep::StudyPlan::mini_plan(3, 12), options);
  std::size_t retried = 0;
  for (const Sample& s : dataset.samples()) {
    retried += s.status == SampleStatus::Retried ? 1 : 0;
  }
  ASSERT_GT(retried, 0u);
  ASSERT_GT(dataset.quarantined_count(), 0u);
  expect_publishes_like_csv(dataset);
}

/// Samples of one mini setting with hand-edited fields.
Dataset crafted_batch() {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 3, 7);
  const arch::CpuArch& cpu = arch::architecture(arch::ArchId::Milan);
  const sweep::StudySetting setting{
      &apps::find_application("xsbench"),
      apps::find_application("xsbench").default_input(), 48};
  return harness.run_setting(cpu, setting, 8);
}

TEST(PublishedForm, ErrorTextWithCommasAndQuotes) {
  std::vector<Sample> samples = crafted_batch().samples();
  samples[1].status = SampleStatus::Retried;
  samples[1].error = "node 3, then node \"7\", gave up";
  samples[2].status = SampleStatus::Quarantined;
  samples[2].error = "\"quoted\"";
  samples[3].error = ",";
  samples[4].error = "trailing cr\r";
  expect_publishes_like_csv(Dataset(std::move(samples)));
}

TEST(PublishedForm, ErrorTextWithANewlineSurvivesWhereTheCsvCouldNot) {
  // The CSV quoted a newline but its decoder splits rows on '\n' first, so
  // such an entry never read back. The published form keeps the text, and
  // the journal hands it back.
  std::vector<Sample> samples = crafted_batch().samples();
  samples[2].status = SampleStatus::Quarantined;
  samples[2].error = "first line\nsecond, \"quoted\" line";
  const Dataset batch(std::move(samples));
  EXPECT_THROW(Dataset::from_csv_text(batch.csv_text()), util::DataCorruptionError);

  const std::string dir = temp_dir("newline");
  const sweep::StudyJournal journal(dir);
  Dataset published = batch;
  published.publish();
  EXPECT_EQ(published.samples()[2].error, batch.samples()[2].error);
  journal.record("batch", published);
  EXPECT_EQ(journal.load("batch").samples()[2].error, batch.samples()[2].error);
  std::filesystem::remove_all(dir);
}

TEST(PublishedForm, ConfigFieldsTheSchemaDoesNotCarry) {
  std::vector<Sample> samples = crafted_batch().samples();
  samples[0].config.chunk = 64;
  samples[1].config.barrier = rt::BarrierKind::Dissemination;
  samples[2].config.num_threads = 7;  // differs from the resolved team size
  samples[3].config.num_threads = 0;
  samples[4].config.chunk = -1;
  samples[4].config.barrier = rt::BarrierKind::Tree;
  const Dataset batch(samples);
  expect_publishes_like_csv(batch);

  Dataset published = batch;
  published.publish();
  for (const Sample& s : published.samples()) {
    EXPECT_EQ(s.config.num_threads, s.threads);
    EXPECT_EQ(s.config.chunk, rt::RtConfig{}.chunk);
    EXPECT_EQ(s.config.barrier, rt::RtConfig{}.barrier);
  }
}

TEST(PublishedForm, RaggedRuntimeListsArePaddedAndOddValuesRounded) {
  std::vector<Sample> samples = crafted_batch().samples();
  samples[0].runtimes.push_back(0.1234567894999);  // the widest row
  samples[1].runtimes.clear();
  samples[2].runtimes.resize(1);
  samples[3].mean_runtime = -0.0;
  samples[3].speedup = 0.0000004999999;
  samples[4].default_runtime = 5e-10;
  samples[5].speedup = 123456789.1234565;
  samples[6].runtimes = {1e7, 2.0000000005, -3e-10};
  expect_publishes_like_csv(Dataset(std::move(samples)));
}

// ---- journaled studies publish one set of bytes -----------------------------

sweep::StudyPlan resume_plan() { return sweep::StudyPlan::mini_plan(3, 6); }

std::string journaled_study_store(const std::string& journal_dir, bool resume,
                                  std::vector<std::string>* progress = nullptr) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, kReps, kSeed);
  sweep::StudyRunOptions options;
  options.journal_dir = journal_dir;
  options.resume = resume;
  options.resilient = true;
  if (progress) {
    options.progress = [progress](const std::string& line) {
      progress->push_back(line);
    };
  }
  return store::serialize_store(harness.run_study(resume_plan(), options));
}

TEST(JournaledStudy, ResumedRunPublishesTheUninterruptedBytes) {
  // A resumed run's replayed settings used to come back CSV-rounded while
  // its recollected ones kept full precision, so `study ... out.omps
  // --resume` published different bytes from an uninterrupted run.
  const std::string dir = temp_dir("resume");
  const std::string uninterrupted =
      journaled_study_store(util::path_join(dir, "a"), false);

  const std::string journal_dir = util::path_join(dir, "b");
  journaled_study_store(journal_dir, false);
  const sweep::StudyJournal journal(journal_dir);
  const std::vector<std::string> entries = journal.entry_files();
  ASSERT_GT(entries.size(), 4u);
  for (std::size_t i = 0; i < entries.size(); i += 2) {
    util::remove_file(util::path_join(journal_dir, entries[i]));
  }
  EXPECT_EQ(journaled_study_store(journal_dir, true), uninterrupted);

  // Worker processes journal the same published form.
  sweep::SupervisorOptions options;
  options.workers = 2;
  options.repetitions = kReps;
  options.seed = kSeed;
  sweep::StudySupervisor supervisor(
      [] { return std::make_unique<sim::ModelRunner>(); }, options);
  EXPECT_EQ(store::serialize_store(supervisor.run(resume_plan())), uninterrupted);
  std::filesystem::remove_all(dir);
}

TEST(JournaledStudy, AnUnjournaledRunPublishesTheJournaledBytes) {
  // Batches are born published, so a study that journals nothing, and runs
  // no resilience policy, still hands on the bytes a journaled run does.
  const std::string dir = temp_dir("unjournaled");
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, kReps, kSeed);
  EXPECT_EQ(store::serialize_store(harness.run_study(resume_plan())),
            journaled_study_store(util::path_join(dir, "j"), false));
  std::filesystem::remove_all(dir);
}

TEST(JournaledStudy, AFailedAppendStillReturnsThePublishedBatch) {
  const std::string dir = temp_dir("enospc");
  const std::string expected =
      journaled_study_store(util::path_join(dir, "clean"), false);
  bool failed_once = false;
  for (std::uint64_t op = 1; op <= 40 && !failed_once; ++op) {
    const std::string journal_dir =
        util::path_join(dir, std::string("j").append(std::to_string(op)));
    sim::StorageFaultPlan plan;
    plan.fail_at_op = op;
    plan.fail_errno = ENOSPC;
    sim::StorageChaos chaos(plan);
    sim::ModelRunner runner;
    sweep::SweepHarness harness(runner, kReps, kSeed);
    sweep::StudyRunOptions options;
    options.journal_dir = journal_dir;
    options.resilient = true;
    Dataset dataset;
    try {
      util::ScopedIoHooks scope(&chaos);
      dataset = harness.run_study(resume_plan(), options);
    } catch (const util::StorageError&) {
      continue;  // the fault hit the journal's own setup, not an append
    }
    if (harness.journal_append_failures() == 0) continue;
    failed_once = true;
    EXPECT_EQ(store::serialize_store(dataset), expected);
  }
  EXPECT_TRUE(failed_once);
  std::filesystem::remove_all(dir);
}

// ---- legacy CSV entries -----------------------------------------------------

/// Replaces `key`'s entry with the CSV entry a journal used to hold.
void write_legacy_entry(const sweep::StudyJournal& journal, const std::string& key) {
  const Dataset batch = journal.load(key);
  std::string path = journal.entry_path(key);
  journal.discard(key);
  path.replace(path.size() - 5, 5, ".csv");
  util::atomic_write_file(path, batch.csv_text());
}

std::vector<std::string> study_keys() {
  std::vector<std::string> keys;
  for (const sweep::SettingTask& task : sweep::flatten_plan(resume_plan())) {
    keys.push_back(task.key);
  }
  return keys;
}

TEST(LegacyEntries, CompactNamesTheFirstLegacyEntry) {
  const std::string dir = temp_dir("legacy_compact");
  const std::string journal_dir = util::path_join(dir, "journal");
  journaled_study_store(journal_dir, false);
  const sweep::StudyJournal journal(journal_dir);
  const std::vector<std::string> keys = study_keys();
  write_legacy_entry(journal, keys[3]);
  write_legacy_entry(journal, keys[1]);
  const std::string first = journal.legacy_entry_files().front();

  const std::string out = util::path_join(dir, "out.omps");
  try {
    journal.compact(out);
    FAIL() << "compacted a journal holding legacy CSV entries";
  } catch (const util::DataCorruptionError& error) {
    EXPECT_NE(std::string(error.what()).find(util::path_join(journal_dir, first)),
              std::string::npos)
        << error.what();
  }
  EXPECT_FALSE(util::file_exists(out));
  std::filesystem::remove_all(dir);
}

TEST(LegacyEntries, ResumeDiscardsThemAndRecollects) {
  const std::string dir = temp_dir("legacy_resume");
  const std::string journal_dir = util::path_join(dir, "journal");
  const std::string uninterrupted = journaled_study_store(journal_dir, false);
  const sweep::StudyJournal journal(journal_dir);
  const std::vector<std::string> keys = study_keys();
  write_legacy_entry(journal, keys[0]);
  write_legacy_entry(journal, keys[2]);

  std::vector<std::string> progress;
  EXPECT_EQ(journaled_study_store(journal_dir, true, &progress), uninterrupted);
  EXPECT_TRUE(journal.legacy_entry_files().empty());
  EXPECT_TRUE(journal.contains(keys[0]));
  EXPECT_TRUE(journal.contains(keys[2]));
  std::size_t discarded = 0;
  for (const std::string& line : progress) {
    if (line.find("legacy CSV journal entry discarded") != std::string::npos) {
      ++discarded;
    }
  }
  EXPECT_EQ(discarded, 2u);
  EXPECT_NO_THROW(journal.compact(util::path_join(dir, "out.omps")));
  std::filesystem::remove_all(dir);
}

TEST(LegacyEntries, SupervisorDiscardsThemAndRecollects) {
  const std::string dir = temp_dir("legacy_supervisor");
  const std::string journal_dir = util::path_join(dir, "journal");
  const std::string uninterrupted = journaled_study_store(journal_dir, false);
  const sweep::StudyJournal journal(journal_dir);
  const std::vector<std::string> keys = study_keys();
  write_legacy_entry(journal, keys[1]);

  std::vector<std::string> progress;
  sweep::SupervisorOptions options;
  options.workers = 2;
  options.repetitions = kReps;
  options.seed = kSeed;
  options.journal_dir = journal_dir;
  options.resume = true;
  options.progress = [&progress](const std::string& line) {
    progress.push_back(line);
  };
  sweep::StudySupervisor supervisor(
      [] { return std::make_unique<sim::ModelRunner>(); }, options);
  EXPECT_EQ(store::serialize_store(supervisor.run(resume_plan())), uninterrupted);
  EXPECT_EQ(supervisor.report().settings_resumed, keys.size() - 1);
  EXPECT_TRUE(journal.legacy_entry_files().empty());
  EXPECT_TRUE(journal.contains(keys[1]));
  bool said = false;
  for (const std::string& line : progress) {
    said = said || line == keys[1] + " legacy CSV journal entry discarded, "
                                     "recollecting";
  }
  EXPECT_TRUE(said);
  std::filesystem::remove_all(dir);
}

// ---- entries that cannot be stored or read ---------------------------------

/// A probe that reports NaN for every measurement.
class NanRunner final : public sim::Runner {
 public:
  double run(const apps::Application&, const apps::InputSize&,
             const arch::CpuArch&, const rt::RtConfig&, std::uint64_t, int,
             std::uint64_t) override {
    return std::numeric_limits<double>::quiet_NaN();
  }
};

TEST(JournaledStudy, ANonFiniteBatchStopsTheStudyAndWritesNoEntry) {
  // Without the resilience policy nothing rejects a NaN measurement, and
  // no store can hold one: record() throws std::invalid_argument naming
  // the setting before it writes anything. Unjournaled collection keeps
  // the NaN, as it always did.
  NanRunner runner;
  sweep::SweepHarness harness(runner, kReps, kSeed);
  const Dataset unjournaled = harness.run_study(resume_plan());
  ASSERT_GT(unjournaled.size(), 0u);
  EXPECT_TRUE(std::isnan(unjournaled.samples().front().runtimes.front()));

  const std::string dir = temp_dir("nan");
  sweep::StudyRunOptions options;
  options.journal_dir = dir;
  options.resilient = false;
  try {
    harness.run_study(resume_plan(), options);
    FAIL() << "journaled a non-finite batch";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("'" + study_keys().front() + "'"),
              std::string::npos)
        << error.what();
  }
  EXPECT_TRUE(sweep::StudyJournal(dir).entry_files().empty());
  std::filesystem::remove_all(dir);
}

TEST(UnreadableEntries, AreCorruptionThatResumeRecollects) {
  const std::string dir = temp_dir("unreadable");
  const std::string journal_dir = util::path_join(dir, "journal");
  const std::string uninterrupted = journaled_study_store(journal_dir, false);
  const sweep::StudyJournal journal(journal_dir);
  const std::string key = study_keys()[1];
  // An entry that exists but cannot be read: a link to a directory.
  const std::string path = journal.entry_path(key);
  util::remove_file(path);
  std::filesystem::create_directory_symlink(dir, path);
  ASSERT_TRUE(journal.contains(key));
  EXPECT_THROW(journal.load(key), util::DataCorruptionError);

  std::vector<std::string> progress;
  EXPECT_EQ(journaled_study_store(journal_dir, true, &progress), uninterrupted);
  EXPECT_FALSE(std::filesystem::is_symlink(path));
  bool said = false;
  for (const std::string& line : progress) {
    said = said || line.starts_with(key + " journal entry invalid, recollecting");
  }
  EXPECT_TRUE(said);
  std::filesystem::remove_all(dir);
}

TEST(UnreadableEntries, OpenNamesThePathOfAFileItCannotOpen) {
  const std::string dir = temp_dir("unopenable");
  const std::string path = util::path_join(dir, "gone.omps");
  try {
    sweep::StudyJournal::open_entry(path);
    FAIL() << "opened a missing entry";
  } catch (const util::DataCorruptionError& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace omptune
