// The binary columnar store must be invisible in the data: a dataset round
// trips through the .omps format bit-faithfully (including ragged runtime
// rows and quarantined samples the CSV schema pads), indexed queries return
// exactly what a full-dataset filter would while leaving non-matching
// runtime blocks untouched, and every corruption mode surfaces as a typed
// DataCorruptionError naming the file and byte offset — never a crash,
// never partial data.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/recommend.hpp"
#include "core/tuner.hpp"
#include "sim/executor.hpp"
#include "store/compact.hpp"
#include "store/format.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "sweep/harness.hpp"
#include "sweep/journal.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/process.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace omptune {
namespace {

std::string temp_dir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_store_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  util::create_directories(dir);
  return dir;
}

/// A small multi-arch, multi-app study dataset, plus hand-made edge cases:
/// a quarantined sample, a retried one, and a ragged runtime row.
sweep::Dataset sample_dataset() {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 3, 5);
  sweep::Dataset dataset =
      harness.run_study(sweep::StudyPlan::mini_plan(2, 6));

  sweep::Sample quarantined = dataset.samples().front();
  quarantined.input = "synthetic-q";
  quarantined.status = sweep::SampleStatus::Quarantined;
  quarantined.error = "node failure, \"quoted\" and, comma";
  quarantined.attempts = 3;
  quarantined.runtimes.clear();  // ragged: no valid repetitions
  quarantined.mean_runtime = 0.0;
  quarantined.speedup = 0.0;
  dataset.add(quarantined);

  sweep::Sample retried = dataset.samples().front();
  retried.input = "synthetic-r";
  retried.status = sweep::SampleStatus::Retried;
  retried.attempts = 2;
  retried.runtimes.pop_back();  // ragged: one repetition lost
  dataset.add(retried);
  return dataset;
}

void expect_samples_equal(const sweep::Sample& a, const sweep::Sample& b) {
  EXPECT_EQ(a.arch, b.arch);
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.suite, b.suite);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.input, b.input);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.runtimes, b.runtimes);  // bit-exact, ragged rows included
  EXPECT_EQ(a.mean_runtime, b.mean_runtime);
  EXPECT_EQ(a.default_runtime, b.default_runtime);
  EXPECT_EQ(a.speedup, b.speedup);
  EXPECT_EQ(a.is_default, b.is_default);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.error, b.error);
}

TEST(Store, RoundTripIsBitFaithful) {
  const sweep::Dataset original = sample_dataset();
  const std::string dir = temp_dir("roundtrip");
  const std::string path = util::path_join(dir, "d.omps");

  original.save_store(path);
  const sweep::Dataset loaded = sweep::Dataset::load_store(path);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    expect_samples_equal(loaded.samples()[i], original.samples()[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(Store, PooledLoadEqualsSequentialLoad) {
  // load() builds rows one after another without a pool and fills a
  // pre-sized vector by index with one; both must give the same dataset
  // and count the same runtime bytes.
  const sweep::Dataset original = sample_dataset();
  const std::string dir = temp_dir("pooled");
  const std::string path = util::path_join(dir, "d.omps");
  original.save_store(path);

  const store::StoreReader sequential_reader(path);
  const store::StoreReader pooled_reader(path);
  const util::ThreadPool pool(4);
  const sweep::Dataset sequential = sequential_reader.load();
  const sweep::Dataset pooled = pooled_reader.load(&pool);

  ASSERT_EQ(sequential.size(), original.size());
  ASSERT_EQ(pooled.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    expect_samples_equal(sequential.samples()[i], original.samples()[i]);
    expect_samples_equal(pooled.samples()[i], original.samples()[i]);
  }
  EXPECT_EQ(sequential_reader.runtime_bytes_touched(),
            pooled_reader.runtime_bytes_touched());
  EXPECT_GT(sequential_reader.runtime_bytes_touched(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(StoreFormat, ChecksumManyEqualsChecksumBytes) {
  // The stepped-together digests must equal the one-buffer definition for
  // any mix of lengths: equal, empty, shorter than a word, ragged tails,
  // and more buffers than one group of four.
  util::Xoshiro256 rng(5);
  std::vector<unsigned char> bytes(4096);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.next());
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t count = 1 + rng.uniform_index(9);
    std::vector<std::span<const unsigned char>> buffers;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t size =
          trial % 5 == 0 ? 64 : rng.uniform_index(trial % 2 == 0 ? 20 : 600);
      const std::size_t at = rng.uniform_index(bytes.size() - size + 1);
      buffers.emplace_back(bytes.data() + at, size);
    }
    std::vector<std::uint64_t> digests(count);
    store::checksum_many(buffers, digests.data());
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(digests[i],
                store::checksum_bytes(buffers[i].data(), buffers[i].size()))
          << "trial " << trial << " buffer " << i << " of " << count;
    }
  }
}

TEST(Store, CsvStoreCsvProducesIdenticalText) {
  // Property: starting from CSV-representable data, a pass through the
  // binary store changes nothing the CSV schema can express.
  const sweep::Dataset source = sample_dataset();
  std::ostringstream first;
  source.to_csv().write(first);

  std::istringstream is(first.str());
  const sweep::Dataset from_csv =
      sweep::Dataset::from_csv(util::CsvTable::read(is));

  const std::string dir = temp_dir("csv_prop");
  const std::string path = util::path_join(dir, "d.omps");
  from_csv.save_store(path);
  std::ostringstream second;
  sweep::Dataset::load_store(path).to_csv().write(second);

  std::istringstream expected(first.str());
  std::ostringstream canonical;
  sweep::Dataset::from_csv(util::CsvTable::read(expected)).to_csv().write(canonical);
  EXPECT_EQ(second.str(), canonical.str());
  std::filesystem::remove_all(dir);
}

TEST(Store, EmptyDatasetRoundTrips) {
  const std::string dir = temp_dir("empty");
  const std::string path = util::path_join(dir, "empty.omps");
  sweep::Dataset().save_store(path);

  const store::StoreReader reader(path);
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_TRUE(reader.settings().empty());
  EXPECT_EQ(reader.load().size(), 0u);
  EXPECT_EQ(reader.query({}).size(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(Store, InMemoryImageReadsLikeTheFile) {
  // A Dataset is analysed through a reader over its serialize_store image:
  // same validation, same rows, errors labelled "<in-memory dataset>".
  const sweep::Dataset original = sample_dataset();
  const store::StoreReader image(original);
  EXPECT_FALSE(image.memory_mapped());
  EXPECT_EQ(image.path(), "<in-memory dataset>");
  EXPECT_EQ(image.file_bytes(), store::serialize_store(original).size());
  const sweep::Dataset loaded = image.load();
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    expect_samples_equal(loaded.samples()[i], original.samples()[i]);
  }

  const store::StoreReader empty{sweep::Dataset()};
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.setting_count(), 0u);
  EXPECT_TRUE(analysis::recommend_for_app(empty, "cg").empty());

  std::vector<sweep::Sample> rows = original.samples();
  rows.front().speedup = std::nan("");
  EXPECT_THROW(store::StoreReader{sweep::Dataset(std::move(rows))},
               std::invalid_argument);
}

TEST(Store, QueryEqualsFilterAndSkipsForeignRuntimeBlocks) {
  const sweep::Dataset dataset = sample_dataset();
  const std::string dir = temp_dir("query");
  const std::string path = util::path_join(dir, "d.omps");
  dataset.save_store(path);

  const std::string arch = dataset.samples().front().arch;
  const std::string app = dataset.samples().front().app;

  const store::StoreReader reader(path);
  store::StoreQuery query;
  query.arch = arch;
  query.app = app;
  const sweep::Dataset slice = reader.query(query);

  const sweep::Dataset expected = dataset.filter([&](const sweep::Sample& s) {
    return s.arch == arch && s.app == app;
  });
  ASSERT_EQ(slice.size(), expected.size());
  ASSERT_GT(slice.size(), 0u);
  ASSERT_LT(slice.size(), dataset.size()) << "query must be selective";
  for (std::size_t i = 0; i < slice.size(); ++i) {
    expect_samples_equal(slice.samples()[i], expected.samples()[i]);
  }

  // The indexed query must have read exactly the matching rows' runtime
  // values and nothing else from the runtime block.
  std::uint64_t matched_runtime_bytes = 0;
  for (const sweep::Sample& s : expected.samples()) {
    matched_runtime_bytes += 8u * s.runtimes.size();
  }
  std::uint64_t all_runtime_bytes = 0;
  for (const sweep::Sample& s : dataset.samples()) {
    all_runtime_bytes += 8u * s.runtimes.size();
  }
  EXPECT_EQ(reader.runtime_bytes_touched(), matched_runtime_bytes);
  EXPECT_LT(reader.runtime_bytes_touched(), all_runtime_bytes);

  // An unconstrained query materializes everything, like load().
  const store::StoreReader full(path);
  EXPECT_EQ(full.query({}).size(), dataset.size());
  std::filesystem::remove_all(dir);
}

TEST(Store, ConcurrentQueriesOnOneReaderAgreeWithSerial) {
  // The serve subsystem's access pattern: one mmap'd StoreReader shared by
  // a worker pool, every worker issuing indexed queries and zero-copy scans
  // concurrently. The reader's const members are documented thread-safe;
  // this pins it down (and gives TSan a real interleaving to chew on —
  // the scan validation latch and the runtime-bytes counter are the only
  // mutable state).
  const sweep::Dataset dataset = sample_dataset();
  const std::string dir = temp_dir("concurrent");
  const std::string path = util::path_join(dir, "d.omps");
  dataset.save_store(path);

  const store::StoreReader reader(path);
  // Serial baselines, computed before any concurrency.
  std::vector<store::StoreQuery> queries;
  std::vector<std::size_t> expected_sizes;
  for (const store::SettingEntry& entry : reader.settings()) {
    store::StoreQuery query;
    query.arch = entry.arch;
    query.app = entry.app;
    queries.push_back(query);
    expected_sizes.push_back(dataset
                                 .filter([&](const sweep::Sample& s) {
                                   return s.arch == entry.arch &&
                                          s.app == entry.app;
                                 })
                                 .size());
  }
  ASSERT_FALSE(queries.empty());

  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 8;
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const std::size_t q = (static_cast<std::size_t>(t) + round) % queries.size();
        const sweep::Dataset slice = reader.query(queries[q]);
        if (slice.size() != expected_sizes[q]) ++mismatches;
        // Interleave the zero-copy path: scan validation races with
        // queries on the same mapping.
        reader.ensure_scan_validated();
        std::size_t rows = 0;
        for (std::size_t r = 0; r < reader.setting_count(); ++r) {
          rows += reader.setting_slice(r).rows;
        }
        if (rows != dataset.size()) ++mismatches;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
  std::filesystem::remove_all(dir);
}

TEST(Store, SettingsIndexMatchesTheData) {
  const sweep::Dataset dataset = sample_dataset();
  const std::string dir = temp_dir("settings");
  const std::string path = util::path_join(dir, "d.omps");
  dataset.save_store(path);

  const store::StoreReader reader(path);
  std::size_t covered = 0;
  for (const store::SettingEntry& entry : reader.settings()) {
    ASSERT_GT(entry.rows, 0u);
    for (std::size_t r = entry.first_row; r < entry.first_row + entry.rows; ++r) {
      const sweep::Sample& s = dataset.samples()[r];
      EXPECT_EQ(s.arch, entry.arch);
      EXPECT_EQ(s.app, entry.app);
      EXPECT_EQ(s.input, entry.input);
      EXPECT_EQ(s.threads, entry.threads);
    }
    covered += entry.rows;
  }
  EXPECT_EQ(covered, dataset.size());
  std::filesystem::remove_all(dir);
}

TEST(Store, KnowledgeBaseFromStoreMatchesInMemoryAnswers) {
  const sweep::Dataset dataset = sample_dataset();
  const std::string dir = temp_dir("kb");
  const std::string path = util::path_join(dir, "d.omps");
  dataset.save_store(path);

  const std::string arch = dataset.samples().front().arch;
  const std::string app = dataset.samples().front().app;

  // Reference: knowledge base over the architecture's slice, in memory.
  const sweep::Dataset arch_data =
      dataset.filter([&](const sweep::Sample& s) { return s.arch == arch; });
  const core::KnowledgeBase reference(arch_data);

  const store::StoreReader reader(path);
  const core::KnowledgeBase from_store(reader, arch);

  EXPECT_EQ(from_store.variable_priority(app, arch),
            reference.variable_priority(app, arch));
  EXPECT_EQ(from_store.best_known_config(app, arch),
            reference.best_known_config(app, arch));
  EXPECT_DOUBLE_EQ(from_store.best_known_speedup(app, arch),
                   reference.best_known_speedup(app, arch));

  // Store-backed recommendations match the in-memory extraction.
  const auto recs_memory =
      analysis::recommend_for_app(store::StoreReader(dataset), app);
  const auto recs_store = analysis::recommend_for_app(reader, app);
  ASSERT_EQ(recs_store.size(), recs_memory.size());
  for (std::size_t i = 0; i < recs_store.size(); ++i) {
    EXPECT_EQ(recs_store[i].variable, recs_memory[i].variable);
    EXPECT_EQ(recs_store[i].value, recs_memory[i].value);
    EXPECT_DOUBLE_EQ(recs_store[i].lift, recs_memory[i].lift);
  }
  std::filesystem::remove_all(dir);
}

TEST(Store, KnowledgeBaseFromStoreFitsOnNonQuarantinedSamples) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 3, 5);
  const sweep::Dataset collected =
      harness.run_study(sweep::StudyPlan::mini_plan(2, 40));
  const std::string arch = collected.samples().front().arch;
  const std::string app = collected.samples().front().app;
  // Quarantine every static-schedule run of one pair: their zeroed
  // speedups would read as "static is sub-optimal" if the fit saw them.
  std::vector<sweep::Sample> samples = collected.samples();
  std::size_t quarantined = 0;
  for (sweep::Sample& s : samples) {
    if (s.arch != arch || s.app != app || s.is_default ||
        s.config.schedule != rt::ScheduleKind::Static) {
      continue;
    }
    s.status = sweep::SampleStatus::Quarantined;
    s.error = "injected";
    for (double& r : s.runtimes) r = 0.0;
    s.mean_runtime = 0.0;
    s.speedup = 0.0;
    ++quarantined;
  }
  ASSERT_GT(quarantined, 0u);
  const sweep::Dataset dataset(std::move(samples));
  const std::string dir = temp_dir("kb_quarantine");
  const std::string path = util::path_join(dir, "d.omps");
  dataset.save_store(path);

  const sweep::Dataset arch_data =
      dataset.filter([&](const sweep::Sample& s) { return s.arch == arch; });
  const sweep::Dataset clean = arch_data.ok_samples();
  // The placeholders do move the fit: that is what is being excluded.
  const auto with_placeholders = analysis::influence_map(
      arch_data, analysis::Grouping::PerArchApplication);
  const auto without = analysis::influence_map(
      clean, analysis::Grouping::PerArchApplication);
  ASSERT_FALSE(with_placeholders.rows.empty());
  ASSERT_NE(with_placeholders.rows.front().influence,
            without.rows.front().influence);

  const core::KnowledgeBase reference(clean);
  const store::StoreReader reader(path);
  const core::KnowledgeBase from_store(reader, arch);
  const core::KnowledgeBase from_dataset(arch_data);
  for (const std::string& pair_app :
       arch_data.distinct([](const sweep::Sample& s) { return s.app; })) {
    EXPECT_EQ(from_store.variable_priority(pair_app, arch),
              reference.variable_priority(pair_app, arch))
        << pair_app;
    EXPECT_EQ(from_dataset.variable_priority(pair_app, arch),
              reference.variable_priority(pair_app, arch))
        << pair_app;
  }
  EXPECT_EQ(from_store.variable_priority("no-such-app", arch),
            reference.variable_priority("no-such-app", arch));
  ASSERT_EQ(from_store.pair_influence().rows.size(),
            reference.pair_influence().rows.size());
  for (std::size_t i = 0; i < reference.pair_influence().rows.size(); ++i) {
    EXPECT_EQ(from_store.pair_influence().rows[i].influence,
              reference.pair_influence().rows[i].influence);
  }
  std::filesystem::remove_all(dir);
}

// ---- dedupe semantics -------------------------------------------------------

TEST(Dedupe, BestStatusWinsRegardlessOfOrder) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 2, 7);
  const sweep::Dataset clean =
      harness.run_study(sweep::StudyPlan::mini_plan(1, 4));

  sweep::Dataset poisoned;
  for (sweep::Sample s : clean.samples()) {
    s.status = sweep::SampleStatus::Quarantined;
    s.error = "bad node";
    poisoned.add(std::move(s));
  }

  // Quarantined first, clean second: the clean re-collection must replace
  // the placeholder in place (not survive by arrival order).
  sweep::Dataset combined = poisoned;
  combined.append(clean);
  sweep::Dataset::DedupeReport report;
  const sweep::Dataset deduped = combined.deduped(&report);
  EXPECT_EQ(deduped.size(), clean.size());
  EXPECT_EQ(deduped.quarantined_count(), 0u);
  EXPECT_EQ(report.duplicates, clean.size());
  EXPECT_EQ(report.replaced, clean.size());

  // Clean first, quarantined second: nothing to replace.
  sweep::Dataset reversed = clean;
  reversed.append(poisoned);
  const sweep::Dataset deduped2 = reversed.deduped(&report);
  EXPECT_EQ(deduped2.size(), clean.size());
  EXPECT_EQ(deduped2.quarantined_count(), 0u);
  EXPECT_EQ(report.replaced, 0u);
}

TEST(Dedupe, CompactFoldsJournalAndDropsResurrectedPlaceholders) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 2, 7);
  const sweep::Dataset clean =
      harness.run_study(sweep::StudyPlan::mini_plan(1, 5));

  const std::string dir = temp_dir("compact");
  const sweep::StudyJournal journal(util::path_join(dir, "journal"));

  // Entry "aaa" sorts first: the quarantined placeholders arrive before the
  // re-collected clean samples in file-name order.
  sweep::Dataset poisoned;
  for (sweep::Sample s : clean.samples()) {
    s.status = sweep::SampleStatus::Quarantined;
    s.error = "bad node";
    poisoned.add(std::move(s));
  }
  journal.record("aaa bad-node pass", poisoned);
  journal.record("zzz re-collection", clean);

  const std::string path = util::path_join(dir, "study.omps");
  const store::CompactReport report = journal.compact(path);
  EXPECT_EQ(report.entries, 2u);
  EXPECT_EQ(report.samples_in, 2 * clean.size());
  EXPECT_EQ(report.samples_out, clean.size());
  EXPECT_EQ(report.duplicates_dropped, clean.size());
  EXPECT_EQ(report.replaced, clean.size());
  EXPECT_EQ(report.quarantined, 0u);

  const sweep::Dataset stored = sweep::Dataset::load_store(path);
  EXPECT_EQ(stored.size(), clean.size());
  EXPECT_EQ(stored.quarantined_count(), 0u);
  std::filesystem::remove_all(dir);
}

// ---- corruption -------------------------------------------------------------

/// Writes `bytes` to a store path and returns it.
std::string write_raw(const std::string& dir, const std::string& bytes) {
  const std::string path = util::path_join(dir, "corrupt.omps");
  util::atomic_write_file(path, bytes);
  return path;
}

/// Opening (or fully loading) `bytes` must throw DataCorruptionError whose
/// message names the file and a byte offset.
void expect_corrupt_open(const std::string& dir, const std::string& bytes,
                         const std::string& expected_fragment) {
  const std::string path = write_raw(dir, bytes);
  try {
    store::StoreReader reader(path);
    reader.load();
    FAIL() << "expected DataCorruptionError (" << expected_fragment << ")";
  } catch (const util::DataCorruptionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("corrupt.omps"), std::string::npos) << what;
    EXPECT_NE(what.find("@ offset"), std::string::npos) << what;
    EXPECT_NE(what.find(expected_fragment), std::string::npos) << what;
  }
}

TEST(StoreCorruption, EveryHeaderFailureModeIsTypedWithFileAndOffset) {
  const std::string pristine = store::serialize_store(sample_dataset());
  const std::string dir = temp_dir("corrupt");

  {  // Bad magic.
    std::string bytes = pristine;
    bytes[0] = 'X';
    expect_corrupt_open(dir, bytes, "bad magic");
  }
  {  // Unsupported version.
    std::string bytes = pristine;
    bytes[8] = 9;
    expect_corrupt_open(dir, bytes, "unsupported store version");
  }
  {  // Truncated header.
    expect_corrupt_open(dir, pristine.substr(0, 20), "smaller than");
  }
  {  // Truncated file (clean cut past the header).
    expect_corrupt_open(dir, pristine.substr(0, pristine.size() / 2),
                        "truncated");
  }
  {  // Flipped checksum in the section table: the header checksum covers it.
    std::string bytes = pristine;
    bytes[store::kHeaderBytes + 24] ^= 0x40;  // first section's checksum field
    expect_corrupt_open(dir, bytes, "header checksum mismatch");
  }
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruption, FlippedRuntimeByteFailsFullLoadButNotForeignQueries) {
  const sweep::Dataset dataset = sample_dataset();
  std::string bytes = store::serialize_store(dataset);
  const std::string dir = temp_dir("flip");

  // Locate the runtimes section via its table entry and flip one byte.
  const std::size_t entry =
      store::kHeaderBytes +
      (static_cast<std::size_t>(store::SectionKind::Runtimes) - 1) *
          store::kSectionEntryBytes;
  const auto section_offset = store::load_scalar<std::uint64_t>(
      reinterpret_cast<const unsigned char*>(bytes.data()) + entry + 8);
  bytes[static_cast<std::size_t>(section_offset)] ^= 0x01;
  const std::string path = write_raw(dir, bytes);

  // Open succeeds: the metadata is intact.
  const store::StoreReader reader(path);
  EXPECT_EQ(reader.size(), dataset.size());

  // A full load verifies every section and must reject the flip.
  try {
    reader.load();
    FAIL() << "expected DataCorruptionError";
  } catch (const util::DataCorruptionError& error) {
    EXPECT_NE(std::string(error.what()).find("runtimes section checksum"),
              std::string::npos)
        << error.what();
  }

  // A query that never touches the damaged row's runtime block is
  // unaffected — exactly the locality the index buys.
  store::StoreQuery query;
  query.arch = dataset.samples().back().arch;
  query.app = dataset.samples().back().app;
  query.input = dataset.samples().back().input;
  EXPECT_GT(reader.query(query).size(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruption, OutOfRangeDictionaryCodeIsCaughtAtMaterialization) {
  const sweep::Dataset dataset = sample_dataset();
  std::string bytes = store::serialize_store(dataset);
  const std::string dir = temp_dir("dict");

  // Patch row 0's suite code (config section, not checksummed by queries)
  // to a code no dictionary can resolve.
  const std::size_t entry =
      store::kHeaderBytes +
      (static_cast<std::size_t>(store::SectionKind::ConfigColumns) - 1) *
          store::kSectionEntryBytes;
  const auto section_offset = store::load_scalar<std::uint64_t>(
      reinterpret_cast<const unsigned char*>(bytes.data()) + entry + 8);
  const std::size_t suite_offset =
      static_cast<std::size_t>(section_offset) +
      store::config_columns_layout(dataset.size()).suite;
  bytes[suite_offset] = '\xFF';
  bytes[suite_offset + 1] = '\xFF';
  const std::string path = write_raw(dir, bytes);

  const store::StoreReader reader(path);
  store::StoreQuery query;
  query.arch = dataset.samples().front().arch;  // row 0 matches
  try {
    reader.query(query);
    FAIL() << "expected DataCorruptionError";
  } catch (const util::DataCorruptionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("suite code"), std::string::npos) << what;
    EXPECT_NE(what.find("@ offset " + std::to_string(suite_offset)),
              std::string::npos)
        << what;
  }
  std::filesystem::remove_all(dir);
}

/// Random truncations and byte garbles: open+load must either succeed with
/// every sample intact or throw DataCorruptionError; an indexed query must
/// never return a row count other than the full partition (no partial
/// data), though it may not detect damage in blocks it never reads.
class StoreCorruptionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StoreCorruptionFuzz, TruncatedOrGarbledStoresNeverLoseDataSilently) {
  const sweep::Dataset dataset = sample_dataset();
  const std::string pristine = store::serialize_store(dataset);
  const std::string dir =
      temp_dir("fuzz_" + std::to_string(GetParam()));
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 9973u + 7);

  int rejected = 0;
  for (int i = 0; i < 60; ++i) {
    std::string mutated = pristine;
    if (rng.uniform() < 0.4) {
      mutated.resize(rng.uniform_index(mutated.size() + 1));
    } else {
      const std::size_t at = rng.uniform_index(mutated.size());
      const std::size_t len =
          std::min<std::size_t>(1 + rng.uniform_index(16), mutated.size() - at);
      for (std::size_t b = 0; b < len; ++b) {
        mutated[at + b] = static_cast<char>(rng.uniform_index(256));
      }
    }
    const std::string path = write_raw(dir, mutated);
    try {
      const store::StoreReader reader(path);
      const sweep::Dataset loaded = reader.load();
      // Success is only acceptable with the dataset fully intact.
      ASSERT_EQ(loaded.size(), dataset.size());
      for (const auto& s : loaded.samples()) {
        ASSERT_TRUE(std::isfinite(s.mean_runtime));
        ASSERT_TRUE(std::isfinite(s.speedup));
      }
    } catch (const util::DataCorruptionError& error) {
      ++rejected;
      EXPECT_NE(std::string(error.what()).find("corrupt.omps"),
                std::string::npos);
    }
    try {
      const store::StoreReader reader(path);
      const sweep::Dataset queried = reader.query({});
      ASSERT_EQ(queried.size(), dataset.size()) << "partial query result";
    } catch (const util::DataCorruptionError&) {
      // The only acceptable failure mode.
    }
  }
  EXPECT_GT(rejected, 0);  // mutations do get caught, not absorbed
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreCorruptionFuzz, ::testing::Range(0, 4));

/// At-rest bit rot: because the header checksum covers the header AND the
/// section table, and every section (padding included) carries its own
/// checksum over its exact padded extent with no inter-section gaps, a
/// single-byte flip ANYWHERE in a .omps file — metadata, bulk columns, the
/// embedded partition index — must surface from a full load as a typed
/// DataCorruptionError naming the file. Never a crash, never silently
/// wrong rows.
class StoreBitRotFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StoreBitRotFuzz, AnySingleByteFlipIsTypedCorruptionNeverSilent) {
  const sweep::Dataset dataset = sample_dataset();
  const std::string pristine = store::serialize_store(dataset);
  const std::string dir = temp_dir("bitrot_" + std::to_string(GetParam()));
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 3);

  std::vector<std::size_t> positions;
  if (GetParam() == 0) {
    // Dense pass over the metadata: magic, header fields, section table.
    const std::size_t metadata = std::min(
        pristine.size(),
        store::kHeaderBytes + store::kSectionCount * store::kSectionEntryBytes);
    for (std::size_t at = 0; at < metadata; ++at) positions.push_back(at);
  }
  // First, middle and last byte of every section — the embedded index and
  // the per-section padding bytes included.
  for (std::uint32_t i = 0; i < store::kSectionCount; ++i) {
    const std::size_t entry =
        store::kHeaderBytes + i * store::kSectionEntryBytes;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::memcpy(&offset, pristine.data() + entry + 8, sizeof offset);
    std::memcpy(&bytes, pristine.data() + entry + 16, sizeof bytes);
    if (bytes == 0 || offset + bytes > pristine.size()) continue;
    positions.push_back(offset);
    positions.push_back(offset + bytes / 2);
    positions.push_back(offset + bytes - 1);
  }
  for (int i = 0; i < 200; ++i) {
    positions.push_back(rng.uniform_index(pristine.size()));
  }

  for (const std::size_t at : positions) {
    std::string mutated = pristine;
    // XOR with a nonzero mask: the byte is guaranteed to change.
    mutated[at] = static_cast<char>(
        static_cast<unsigned char>(mutated[at]) ^
        static_cast<unsigned char>(1 + rng.uniform_index(255)));
    const std::string path = write_raw(dir, mutated);
    try {
      const store::StoreReader reader(path);
      reader.load();
      FAIL() << "single-byte flip at offset " << at << " of "
             << pristine.size() << " loaded without a corruption error";
    } catch (const util::DataCorruptionError& error) {
      EXPECT_NE(std::string(error.what()).find("corrupt.omps"),
                std::string::npos)
          << error.what();
    }
    // Any other exception type escapes and fails the test: a flip must
    // never surface as a crash, a bad_alloc, or an untyped error.
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreBitRotFuzz, ::testing::Range(0, 3));

// ---- CSV loader hardening (the silent short-read path) ----------------------

TEST(CsvHardening, GarbledRuntimeColumnNameRejectsTheFile) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 3, 5);
  const auto table =
      harness.run_study(sweep::StudyPlan::mini_plan(1, 3)).to_csv();

  // A garbled trailing column name used to silently shrink the repetition
  // block (every row lost runtime_1 with no error). Both spellings of the
  // damage must now reject the whole table.
  for (const std::string garbled : {"runtime_x", "runtimX_1"}) {
    std::vector<std::string> header = table.header();
    header[table.col_index("runtime_1")] = garbled;
    util::CsvTable bad(header);
    for (std::size_t r = 0; r < table.num_rows(); ++r) bad.add_row(table.row(r));
    try {
      sweep::Dataset::from_csv(bad, "garbled.csv");
      FAIL() << "expected rejection of header column '" << garbled << "'";
    } catch (const util::DataCorruptionError& error) {
      EXPECT_NE(std::string(error.what()).find("garbled.csv"),
                std::string::npos)
          << error.what();
    }
  }

  // Swapped runtime columns are equally a schema violation.
  {
    std::vector<std::string> header = table.header();
    std::swap(header[table.col_index("runtime_0")],
              header[table.col_index("runtime_1")]);
    util::CsvTable bad(header);
    for (std::size_t r = 0; r < table.num_rows(); ++r) bad.add_row(table.row(r));
    EXPECT_THROW(sweep::Dataset::from_csv(bad, "swapped.csv"),
                 util::DataCorruptionError);
  }

  // The pristine table still parses, with every repetition present.
  const sweep::Dataset parsed = sweep::Dataset::from_csv(table, "ok.csv");
  ASSERT_GT(parsed.size(), 0u);
  EXPECT_EQ(parsed.samples().front().runtimes.size(), 3u);
}

TEST(CompactCrashSafety, KillMidCompactNeverLeavesATornStore) {
  // The compactor writes through a temp file and an atomic rename, so a
  // SIGKILL at any point must leave the output path either absent or a
  // complete, checksum-valid store byte-identical to an undisturbed
  // compact — never a truncated or half-written file.
  const std::string dir = temp_dir("kill_compact");

  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 2, 5);
  sweep::StudyRunOptions options;
  options.journal_dir = util::path_join(dir, "journal");
  harness.run_study(sweep::StudyPlan::mini_plan(2, 8), options);
  const sweep::StudyJournal journal(options.journal_dir);

  const std::string reference = util::path_join(dir, "reference.omps");
  journal.compact(reference);
  const std::string expected = util::read_file(reference).value();
  ASSERT_FALSE(expected.empty());

  const std::string out = util::path_join(dir, "out.omps");
  for (const unsigned delay_us : {0u, 50u, 200u, 500u, 1000u, 3000u, 8000u}) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        journal.compact(out);
      } catch (...) {
      }
      ::_exit(0);  // skip atexit / sanitizer leak checks in the fork child
    }
    ::usleep(delay_us);
    ::kill(pid, SIGKILL);
    util::wait_for(pid);

    if (util::file_exists(out)) {
      // The rename already happened: the store must be whole and identical.
      EXPECT_EQ(util::read_file(out).value(), expected)
          << "torn store after SIGKILL at " << delay_us << "us";
      EXPECT_NO_THROW(store::StoreReader(out).load());
      util::remove_file_durable(out);
    }
  }

  // A killed re-compact over an existing store must leave the old bytes
  // untouched — overwrite is all-or-nothing too.
  journal.compact(out);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      journal.compact(out);
    } catch (...) {
    }
    ::_exit(0);
  }
  ::usleep(300);
  ::kill(pid, SIGKILL);
  util::wait_for(pid);
  EXPECT_EQ(util::read_file(out).value(), expected);
  EXPECT_NO_THROW(store::StoreReader(out).load());

  // Temp droppings from the killed writers are swept by the next compact,
  // which itself still produces the identical store.
  journal.compact(out);
  EXPECT_EQ(util::read_file(out).value(), expected);
  std::filesystem::remove_all(dir);
}

TEST(Store, BufferedFallbackAnswersQueriesIdentically) {
  // OMPTUNE_NO_MMAP=1 forces the reader onto plain buffered I/O (the path
  // taken on mmap-refusing filesystems). Every query and full load must
  // return exactly what the kernel mapping returns.
  const sweep::Dataset original = sample_dataset();
  const std::string dir = temp_dir("no_mmap");
  const std::string path = util::path_join(dir, "d.omps");
  original.save_store(path);

  store::StoreReader mapped(path);
  EXPECT_TRUE(mapped.memory_mapped());

  ::setenv("OMPTUNE_NO_MMAP", "1", 1);
  store::StoreReader buffered(path);
  ::unsetenv("OMPTUNE_NO_MMAP");
  EXPECT_FALSE(buffered.memory_mapped());

  const sweep::Dataset via_map = mapped.load();
  const sweep::Dataset via_read = buffered.load();
  ASSERT_EQ(via_read.size(), via_map.size());
  for (std::size_t i = 0; i < via_read.size(); ++i) {
    expect_samples_equal(via_read.samples()[i], via_map.samples()[i]);
  }

  store::StoreQuery query;
  query.app = original.samples().front().app;
  const sweep::Dataset slice_map = mapped.query(query);
  const sweep::Dataset slice_read = buffered.query(query);
  ASSERT_GT(slice_read.size(), 0u);
  ASSERT_EQ(slice_read.size(), slice_map.size());
  for (std::size_t i = 0; i < slice_read.size(); ++i) {
    expect_samples_equal(slice_read.samples()[i], slice_map.samples()[i]);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace omptune
