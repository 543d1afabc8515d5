// Differential test for streaming compaction: journal compaction and
// tiered merges feed one StoreBuilder an entry (or member store) at a time,
// straight from its columns, and resolve duplicates as rows arrive, instead
// of concatenating every Sample, deduping and serializing. The store bytes
// and the report tallies must equal those of the implementation they
// replaced — kept below verbatim (serialize_store, the string-keyed
// Dataset::deduped, the compact_journal body and the tiered merge body;
// only the calls between them are renamed to the copies, and the journal
// compaction lists its own directory of CSV entries).
//
// Journal entries are .omps stores written by StudyJournal::record, which
// publishes each batch first. The reference compacts what the journal held
// before: the same batches' csv_text, one CSV file per entry. Equal bytes
// therefore also prove that the published form is the CSV read-back.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/executor.hpp"
#include "store/compact.hpp"
#include "store/format.hpp"
#include "store/reader.hpp"
#include "store/tiered.hpp"
#include "store/writer.hpp"
#include "sweep/dataset.hpp"
#include "sweep/harness.hpp"
#include "sweep/journal.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace omptune::store {
namespace {

using sweep::Dataset;
using sweep::DedupeReport;
using sweep::Sample;
using sweep::sample_identity;
using sweep::status_preference;

// ---- the replaced implementation, verbatim --------------------------------

/// First-appearance-ordered string dictionary.
struct Dict {
  std::vector<std::string> values;
  std::map<std::string, std::uint32_t> codes;

  std::uint32_t code(const std::string& value) {
    const auto [it, inserted] =
        codes.emplace(value, static_cast<std::uint32_t>(values.size()));
    if (inserted) values.push_back(value);
    return it->second;
  }
};

void append_dict(std::string& out, const Dict& dict) {
  append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(dict.values.size()));
  for (const std::string& value : dict.values) {
    append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(value.size()));
    out.append(value);
  }
}

std::uint16_t narrow16(std::uint32_t code, const char* what) {
  if (code > 0xFFFFu) {
    throw std::invalid_argument(std::string("write_store: more than 65535 distinct ") +
                                what + " values");
  }
  return static_cast<std::uint16_t>(code);
}

double finite_or_throw(double value, const char* what, std::size_t row) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("write_store: non-finite " + std::string(what) +
                                " in sample " + std::to_string(row));
  }
  return value;
}

void pad_to_8(std::string& out) { out.resize(pad8(out.size()), '\0'); }

/// Pad an in-section array boundary to `align` bytes.
void pad_to(std::string& out, std::size_t align) {
  while (out.size() % align != 0) out.push_back('\0');
}

std::string reference_serialize_store(const Dataset& dataset) {
  const std::vector<Sample>& samples = dataset.samples();
  const std::size_t n = samples.size();
  std::size_t reps = 0;
  for (const Sample& s : samples) reps = std::max(reps, s.runtimes.size());

  // ---- dictionaries (and per-sample codes, built in one pass) ----
  Dict arch_dict, app_dict, input_dict, suite_dict, kind_dict, error_dict;
  std::vector<std::uint16_t> arch_code(n), app_code(n), input_code(n);
  std::vector<std::uint16_t> suite_code(n), kind_code(n);
  std::vector<std::uint32_t> error_code(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = samples[i];
    arch_code[i] = narrow16(arch_dict.code(s.arch), "arch");
    app_code[i] = narrow16(app_dict.code(s.app), "app");
    input_code[i] = narrow16(input_dict.code(s.input), "input");
    suite_code[i] = narrow16(suite_dict.code(s.suite), "suite");
    kind_code[i] = narrow16(kind_dict.code(s.kind), "kind");
    error_code[i] = error_dict.code(s.error);
  }

  std::string dictionaries;
  append_dict(dictionaries, arch_dict);
  append_dict(dictionaries, app_dict);
  append_dict(dictionaries, input_dict);
  append_dict(dictionaries, suite_dict);
  append_dict(dictionaries, kind_dict);
  append_dict(dictionaries, error_dict);
  pad_to_8(dictionaries);

  // ---- key columns ----
  std::string key_cols;
  for (std::size_t i = 0; i < n; ++i) append_scalar(key_cols, arch_code[i]);
  for (std::size_t i = 0; i < n; ++i) append_scalar(key_cols, app_code[i]);
  for (std::size_t i = 0; i < n; ++i) append_scalar(key_cols, input_code[i]);
  pad_to(key_cols, 4);
  for (std::size_t i = 0; i < n; ++i) {
    append_scalar<std::int32_t>(key_cols, samples[i].threads);
  }
  pad_to_8(key_cols);

  // ---- config columns (widest first so every array stays aligned) ----
  std::string config_cols;
  for (const Sample& s : samples) {
    append_scalar<std::int64_t>(config_cols, s.config.blocktime_ms);
  }
  for (const Sample& s : samples) {
    append_scalar<std::int32_t>(config_cols, s.config.num_threads);
  }
  for (const Sample& s : samples) {
    append_scalar<std::int32_t>(config_cols, s.config.chunk);
  }
  for (const Sample& s : samples) {
    append_scalar<std::int32_t>(config_cols, s.config.align_alloc);
  }
  for (const Sample& s : samples) {
    append_scalar<std::int32_t>(config_cols, s.attempts);
  }
  for (const Sample& s : samples) {
    append_scalar<std::uint16_t>(config_cols,
                                 static_cast<std::uint16_t>(s.runtimes.size()));
  }
  for (const Sample& s : samples) append_scalar(config_cols, suite_code[&s - samples.data()]);
  for (const Sample& s : samples) append_scalar(config_cols, kind_code[&s - samples.data()]);
  for (const Sample& s : samples) {
    append_scalar<std::uint8_t>(config_cols,
                                static_cast<std::uint8_t>(s.config.places));
  }
  for (const Sample& s : samples) {
    append_scalar<std::uint8_t>(config_cols, static_cast<std::uint8_t>(s.config.bind));
  }
  for (const Sample& s : samples) {
    append_scalar<std::uint8_t>(config_cols,
                                static_cast<std::uint8_t>(s.config.schedule));
  }
  for (const Sample& s : samples) {
    append_scalar<std::uint8_t>(config_cols,
                                static_cast<std::uint8_t>(s.config.library));
  }
  for (const Sample& s : samples) {
    append_scalar<std::uint8_t>(config_cols,
                                static_cast<std::uint8_t>(s.config.reduction));
  }
  for (const Sample& s : samples) {
    append_scalar<std::uint8_t>(config_cols, static_cast<std::uint8_t>(s.status));
  }
  for (const Sample& s : samples) {
    append_scalar<std::uint8_t>(config_cols, s.is_default ? 1 : 0);
  }
  pad_to_8(config_cols);

  // ---- stat columns ----
  std::string stat_cols;
  for (std::size_t i = 0; i < n; ++i) {
    append_scalar(stat_cols, finite_or_throw(samples[i].mean_runtime, "mean_runtime", i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    append_scalar(stat_cols,
                  finite_or_throw(samples[i].default_runtime, "default_runtime", i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    append_scalar(stat_cols, finite_or_throw(samples[i].speedup, "speedup", i));
  }

  // ---- runtimes (fixed stride, zero-padded like the CSV schema) ----
  std::string runtimes;
  runtimes.reserve(n * reps * sizeof(double));
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = samples[i];
    for (std::size_t r = 0; r < reps; ++r) {
      append_scalar(runtimes,
                    r < s.runtimes.size()
                        ? finite_or_throw(s.runtimes[r], "runtime", i)
                        : 0.0);
    }
  }

  // ---- error codes ----
  std::string errors;
  for (std::size_t i = 0; i < n; ++i) append_scalar(errors, error_code[i]);
  pad_to_8(errors);

  // ---- index: runs of identical (arch, app, input, threads) keys ----
  struct Run {
    std::uint16_t arch, app, input;
    std::int32_t threads;
    std::uint64_t first_row, row_count;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < n; ++i) {
    const bool extends = !runs.empty() && runs.back().arch == arch_code[i] &&
                         runs.back().app == app_code[i] &&
                         runs.back().input == input_code[i] &&
                         runs.back().threads == samples[i].threads;
    if (extends) {
      ++runs.back().row_count;
    } else {
      runs.push_back(Run{arch_code[i], app_code[i], input_code[i],
                         samples[i].threads, i, 1});
    }
  }
  std::string index;
  append_scalar<std::uint64_t>(index, runs.size());
  for (const Run& run : runs) {
    append_scalar(index, run.arch);
    append_scalar(index, run.app);
    append_scalar(index, run.input);
    append_scalar<std::uint16_t>(index, 0);
    append_scalar(index, run.threads);
    append_scalar<std::uint32_t>(index, 0);
    append_scalar(index, run.first_row);
    append_scalar(index, run.row_count);
  }

  // The writer's append order and the shared layout helpers must agree;
  // catching a drift here turns a subtle reader bug into a loud writer one.
  if (key_cols.size() != key_columns_layout(n).bytes ||
      config_cols.size() != config_columns_layout(n).bytes ||
      stat_cols.size() != stat_columns_layout(n).bytes ||
      runtimes.size() != runtimes_bytes(n, reps) ||
      errors.size() != errors_bytes(n)) {
    throw std::logic_error("write_store: section layout drifted from format.hpp");
  }

  // ---- assemble header + section table + sections ----
  const std::string* sections[kSectionCount] = {
      &dictionaries, &key_cols, &config_cols, &stat_cols,
      &runtimes,     &errors,   &index};
  const SectionKind kinds[kSectionCount] = {
      SectionKind::Dictionaries, SectionKind::KeyColumns,
      SectionKind::ConfigColumns, SectionKind::StatColumns,
      SectionKind::Runtimes,      SectionKind::Errors,
      SectionKind::Index};

  const std::size_t header_bytes =
      kHeaderBytes + kSectionCount * kSectionEntryBytes;
  std::size_t file_bytes = header_bytes;
  for (const std::string* s : sections) file_bytes += s->size();

  std::string out;
  out.reserve(file_bytes);
  out.append(kMagic, sizeof(kMagic));
  append_scalar<std::uint32_t>(out, kVersion);
  append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(header_bytes));
  append_scalar<std::uint64_t>(out, file_bytes);
  append_scalar<std::uint64_t>(out, n);
  append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(reps));
  append_scalar<std::uint32_t>(out, kSectionCount);
  const std::size_t checksum_at = out.size();
  append_scalar<std::uint64_t>(out, 0);  // header checksum, patched below

  std::size_t offset = header_bytes;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(kinds[i]));
    append_scalar<std::uint32_t>(out, 0);
    append_scalar<std::uint64_t>(out, offset);
    append_scalar<std::uint64_t>(out, sections[i]->size());
    append_scalar<std::uint64_t>(out,
                                 checksum_bytes(sections[i]->data(), sections[i]->size()));
    offset += sections[i]->size();
  }

  const std::uint64_t header_checksum = checksum_bytes(out.data(), out.size());
  std::memcpy(out.data() + checksum_at, &header_checksum, sizeof(header_checksum));

  for (const std::string* s : sections) out.append(*s);
  return out;
}

void reference_write_store(const std::string& path, const Dataset& dataset) {
  util::atomic_write_file(path, reference_serialize_store(dataset));
}

Dataset reference_deduped(const Dataset& dataset, DedupeReport* report) {
  std::vector<Sample> samples_ = dataset.samples();
  if (report) *report = DedupeReport{};
  // Compacts in place: a kept sample only ever moves to an earlier slot, so
  // the first-appearance order survives without a second vector.
  std::unordered_map<std::string, std::size_t> first_position;  // -> index
  first_position.reserve(samples_.size());
  std::size_t kept_count = 0;
  for (Sample& s : samples_) {
    const auto [it, inserted] =
        first_position.try_emplace(sample_identity(s), kept_count);
    if (inserted) {
      Sample& slot = samples_[kept_count++];
      if (&slot != &s) slot = std::move(s);
      continue;
    }
    if (report) ++report->duplicates;
    Sample& kept = samples_[it->second];
    if (status_preference(s.status) < status_preference(kept.status)) {
      kept = std::move(s);
      if (report) ++report->replaced;
    }
  }
  samples_.erase(samples_.begin() + static_cast<std::ptrdiff_t>(kept_count),
                 samples_.end());
  return Dataset(std::move(samples_));
}

CompactReport reference_compact_journal(const std::string& csv_dir,
                              const std::string& out_path) {
  CompactReport report;
  sweep::Dataset combined;
  for (const std::string& name : util::list_files(csv_dir)) {
    sweep::Dataset entry =
        sweep::Dataset::load_csv_file(util::path_join(csv_dir, name));
    report.samples_in += entry.size();
    combined.append(std::move(entry));
    ++report.entries;
  }

  sweep::DedupeReport dedupe;
  sweep::Dataset deduped = reference_deduped(combined, &dedupe);
  report.duplicates_dropped = dedupe.duplicates;
  report.replaced = dedupe.replaced;
  report.samples_out = deduped.size();
  report.quarantined = deduped.quarantined_count();

  reference_write_store(out_path, deduped);
  return report;
}

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

/// Content hash of one merge group: combined hash of every member's raw
/// bytes. Names the group's intermediate, so a surviving intermediate is
/// reused iff it was produced from byte-identical inputs — the property
/// that makes mid-compaction crash resume converge on identical output.
std::uint64_t group_content_hash(const std::vector<std::string>& members) {
  std::uint64_t h = 0x7143ed00c0de5ULL;
  for (const std::string& path : members) {
    const auto bytes = util::read_file(path);
    // Missing members are caught later by the load path; hash them as empty
    // so the reuse check stays deterministic.
    h = util::hash_combine(h, util::stable_hash(bytes ? *bytes : ""));
  }
  return h;
}

void remove_scratch(const std::string& dir) {
  for (const std::string& name : util::list_files(dir)) {
    util::remove_file(util::path_join(dir, name));
  }
  ::rmdir(dir.c_str());
}

TieredReport reference_tiered_compact(const std::vector<std::string>& inputs,
                            const std::string& out_path,
                            const TieredOptions& options) {
  if (inputs.empty()) {
    throw std::invalid_argument("tiered_compact: no input stores");
  }
  if (options.fan_in < 2) {
    throw std::invalid_argument("tiered_compact: fan_in must be >= 2");
  }
  const std::string scratch =
      options.scratch_dir.empty() ? out_path + ".tiers" : options.scratch_dir;
  util::create_directories(scratch);
  util::remove_stale_temp_files(scratch);

  TieredReport report;
  report.inputs = inputs.size();

  std::vector<std::string> current = inputs;
  // Every intermediate this run touches (written or reused). Anything else
  // in scratch is a dropping of a previous crashed run whose inputs have
  // since changed — stale by definition, swept before publish.
  std::set<std::string> live_intermediates;
  std::size_t level = 0;
  // Always at least one pass, even for a single input: the output must be a
  // normalized (deduped, freshly serialized) store regardless of input count.
  do {
    ++report.tiers;
    std::vector<std::string> next;
    for (std::size_t start = 0; start < current.size();
         start += options.fan_in) {
      const std::size_t end = std::min(start + options.fan_in, current.size());
      const std::vector<std::string> group(current.begin() + start,
                                           current.begin() + end);
      const std::string inter_path = util::path_join(
          scratch, "t" + std::to_string(level) + "-" +
                       std::to_string(start / options.fan_in) + "-" +
                       hex16(group_content_hash(group)) + ".omps");
      ++report.merges;
      live_intermediates.insert(inter_path);
      if (util::file_exists(inter_path)) {
        // A content-named intermediate from a previous (crashed) run: adopt
        // it iff it still validates end to end.
        try {
          sweep::Dataset::load_store(inter_path);
          ++report.reused_intermediates;
          if (options.progress) {
            options.progress("tiered: reusing intermediate " + inter_path);
          }
          next.push_back(inter_path);
          continue;
        } catch (const util::DataCorruptionError&) {
          util::remove_file(inter_path);  // torn scratch file; rebuild
        }
      }
      sweep::Dataset combined;
      for (const std::string& member : group) {
        try {
          sweep::Dataset loaded = sweep::Dataset::load_store(member);
          if (level == 0) report.samples_in += loaded.size();
          combined.append(std::move(loaded));
        } catch (const util::DataCorruptionError& err) {
          // Only original inputs may be forgiven; a bad intermediate at a
          // deeper level is our own scratch corrupted underneath us.
          if (level == 0 && options.lenient) {
            report.skipped_inputs.push_back(SkippedInput{member, err.what()});
            if (options.progress) {
              options.progress(std::string("tiered: skipping corrupt input: ") +
                               err.what());
            }
            continue;
          }
          throw;
        }
      }
      sweep::DedupeReport dedupe;
      sweep::Dataset deduped = reference_deduped(combined, &dedupe);
      report.duplicates_dropped += dedupe.duplicates;
      report.replaced += dedupe.replaced;
      reference_write_store(inter_path, deduped);
      next.push_back(inter_path);
    }
    current = std::move(next);
    ++level;
  } while (current.size() > 1);

  // Stale-intermediate sweep: content-named files from previous crashed
  // runs that no group of THIS run produced would otherwise survive every
  // keep_scratch resume cycle.
  for (const std::string& name : util::list_files(scratch)) {
    const std::string path = util::path_join(scratch, name);
    if (live_intermediates.count(path) != 0) continue;
    if (util::remove_file(path)) {
      ++report.stale_intermediates_removed;
      if (options.progress) {
        options.progress("tiered: removed stale intermediate " + path);
      }
    }
  }

  // Validate the final store before publishing it over the previous output,
  // and pull the output tallies from what will actually be published.
  const std::string& final_path = current.front();
  {
    const sweep::Dataset final_dataset = sweep::Dataset::load_store(final_path);
    report.samples_out = final_dataset.size();
    report.quarantined = final_dataset.quarantined_count();
  }
  // Atomic publish: rename + parent-dir fsync. A crash before this line
  // leaves the previous out_path intact; after it, the new store is durable.
  util::rename_file(final_path, out_path);
  if (!options.keep_scratch) remove_scratch(scratch);
  if (options.progress) {
    options.progress("tiered: published " + out_path + " (" +
                     std::to_string(report.samples_out) + " samples, " +
                     std::to_string(report.tiers) + " tiers)");
  }
  return report;
}

// ---- the comparisons ------------------------------------------------------

std::string temp_dir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_compaction_diff_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  util::create_directories(dir);
  return dir;
}

std::string bytes_of(const std::string& path) {
  const auto bytes = util::read_file(path);
  return bytes ? *bytes : std::string();
}

/// A small study over every architecture; each setting is one run of rows.
Dataset mini_study(std::uint64_t seed = 3) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 3, seed);
  return harness.run_study(sweep::StudyPlan::mini_plan(2, 5));
}

/// Rows [begin, end) of `dataset`, transformed by `edit`.
template <typename Edit>
Dataset rows(const Dataset& dataset, std::size_t begin, std::size_t end,
             Edit&& edit) {
  Dataset out;
  for (std::size_t i = begin; i < std::min(end, dataset.size()); ++i) {
    Sample s = dataset.samples()[i];
    edit(s, i);
    out.add(std::move(s));
  }
  return out;
}

Dataset rows(const Dataset& dataset, std::size_t begin, std::size_t end) {
  return rows(dataset, begin, end, [](Sample&, std::size_t) {});
}

void quarantine(Sample& s, const std::string& error) {
  s.status = sweep::SampleStatus::Quarantined;
  s.error = error;
  s.attempts = 3;
  s.runtimes.clear();
  s.mean_runtime = 0.0;
  s.speedup = 0.0;
}

/// A journal of .omps entries and, beside it, the CSV entries the journal
/// held before (the reference's input), under the same file-name stems.
struct Journals {
  std::string journal;
  std::string csv;
};

/// The CSV twin of `journal`'s entry for `key`: `batch`'s CSV text in
/// `csv_dir`, under the entry's file-name stem, so both directories list
/// their entries in the same order.
void write_csv_entry(const sweep::StudyJournal& journal, const std::string& csv_dir,
                     const std::string& key, const Dataset& batch) {
  util::create_directories(csv_dir);
  const std::string stem =
      std::filesystem::path(journal.entry_path(key)).stem().string();
  util::atomic_write_file(util::path_join(csv_dir, stem + ".csv"),
                          batch.csv_text());
}

/// Records each dataset as one journal entry, keyed so that file-name order
/// is argument order, and writes its CSV twin.
Journals write_journal(const std::string& dir,
                       const std::vector<Dataset>& entries) {
  const Journals out{util::path_join(dir, "journal"), util::path_join(dir, "csv")};
  const sweep::StudyJournal journal(out.journal);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    char key[32];
    std::snprintf(key, sizeof key, "entry-%03zu", i);
    write_csv_entry(journal, out.csv, key, entries[i]);
    Dataset batch = entries[i];
    journal.record(key, batch);
  }
  return out;
}

/// Compacts the journal and its CSV twin with both implementations; bytes
/// and every report field must agree. Returns the new implementation's
/// report.
CompactReport expect_same_compaction(const std::string& dir,
                                     const Journals& journals) {
  const sweep::StudyJournal journal(journals.journal);
  const std::string expected_path = util::path_join(dir, "reference.omps");
  const std::string actual_path = util::path_join(dir, "builder.omps");
  const CompactReport expected =
      reference_compact_journal(journals.csv, expected_path);
  const CompactReport actual = compact_journal(journal, actual_path);
  EXPECT_EQ(actual.entries, expected.entries);
  EXPECT_EQ(actual.samples_in, expected.samples_in);
  EXPECT_EQ(actual.samples_out, expected.samples_out);
  EXPECT_EQ(actual.duplicates_dropped, expected.duplicates_dropped);
  EXPECT_EQ(actual.replaced, expected.replaced);
  EXPECT_EQ(actual.quarantined, expected.quarantined);
  EXPECT_EQ(bytes_of(actual_path), bytes_of(expected_path));
  return actual;
}

TEST(CompactionDifferential, MiniTableIIJournal) {
  const std::string dir = temp_dir("mini");
  // The benchmark's miniature Table II plan: three apps per architecture.
  const sweep::StudyPlan plan = sweep::StudyPlan::mini_plan(3, 24);
  sweep::StudyRunOptions options;
  options.resilient = true;
  sim::ModelRunner runner;
  sweep::SweepHarness unjournaled(runner, 4, 11);
  const Dataset batches = unjournaled.run_study(plan, options);

  // The journal as a journaled study writes it, and the CSV entry a
  // journal held for each of the same batches before entries were stores.
  const Journals journals{util::path_join(dir, "journal"), util::path_join(dir, "csv")};
  options.journal_dir = journals.journal;
  sweep::SweepHarness harness(runner, 4, 11);
  harness.run_study(plan, options);
  const sweep::StudyJournal journal(journals.journal);
  std::size_t first = 0;
  for (const sweep::ArchPlan& arch_plan : plan.arch_plans) {
    const arch::CpuArch& cpu = arch::architecture(arch_plan.arch);
    for (std::size_t i = 0; i < arch_plan.settings.size(); ++i) {
      const std::size_t count = arch_plan.configs_per_setting[i];
      write_csv_entry(journal, journals.csv,
                      sweep::setting_key(cpu.name, arch_plan.settings[i]),
                      rows(batches, first, first + count));
      first += count;
    }
  }
  ASSERT_EQ(first, batches.size());

  const CompactReport report = expect_same_compaction(dir, journals);
  EXPECT_EQ(report.entries, 9u);
  EXPECT_EQ(report.samples_out, 9u * 24u);
  std::filesystem::remove_all(dir);
}

TEST(CompactionDifferential, LaterOkReplacesQuarantinedAndRetriedRows) {
  const Dataset clean = mini_study();
  const std::size_t n = clean.size();
  const std::string dir = temp_dir("replace");
  const Journals journal = write_journal(
      dir, {rows(clean, 0, n / 2,
                 [](Sample& s, std::size_t i) {
                   if (i % 3 == 0) quarantine(s, "lost node " + std::to_string(i % 7));
                 }),
            rows(clean, n / 4, 3 * n / 4,
                 [](Sample& s, std::size_t i) {
                   if (i % 2 == 0) {
                     s.status = sweep::SampleStatus::Retried;
                     s.attempts = 2;
                     s.error = "transient";
                   }
                 }),
            rows(clean, 0, n)});
  const CompactReport report = expect_same_compaction(dir, journal);
  EXPECT_GT(report.replaced, 0u);
  EXPECT_EQ(report.quarantined, 0u);
  std::filesystem::remove_all(dir);
}

TEST(CompactionDifferential, DroppedRowsLeaveNoErrorStringOrWidestRuntimes) {
  const Dataset clean = mini_study();
  const std::size_t reps = clean.samples().front().runtimes.size();
  const auto widen = [](Sample& s, const std::string& error) {
    quarantine(s, error);
    s.runtimes.assign(9, 1.0);  // the widest row anywhere
  };
  const std::string dir = temp_dir("dropped");
  // Replaced: a quarantined first occurrence later upgraded by a clean one.
  // Dropped: a quarantined duplicate arriving after the clean row.
  const Journals journal = write_journal(
      dir, {rows(clean, 0, 1, [&](Sample& s, std::size_t) { widen(s, "only in the replaced row"); }),
            rows(clean, 0, clean.size()),
            rows(clean, 5, 6, [&](Sample& s, std::size_t) { widen(s, "only in the dropped row"); })});
  const CompactReport report = expect_same_compaction(dir, journal);
  EXPECT_EQ(report.replaced, 1u);
  EXPECT_EQ(report.duplicates_dropped, 2u);

  const StoreReader reader(util::path_join(dir, "builder.omps"));
  EXPECT_EQ(reader.repetitions(), reps);
  const std::string bytes = bytes_of(util::path_join(dir, "builder.omps"));
  EXPECT_EQ(bytes.find("only in the"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CompactionDifferential, InterleavedSettingsAndEmptyEntries) {
  const Dataset clean = mini_study(5);
  const std::size_t n = clean.size();
  const std::string dir = temp_dir("interleaved");
  // Every other row first, the rest after an empty entry: each setting's
  // rows arrive in two halves, so the index holds repeated keys.
  Dataset even, odd;
  for (std::size_t i = 0; i < n; ++i) {
    (i % 2 == 0 ? even : odd).add(clean.samples()[i]);
  }
  const Journals journal =
      write_journal(dir, {even, Dataset(), odd, rows(clean, n / 3, n / 2)});
  const CompactReport report = expect_same_compaction(dir, journal);
  EXPECT_EQ(report.samples_out, n);
  EXPECT_GT(StoreReader(util::path_join(dir, "builder.omps")).setting_count(),
            n / 5);
  std::filesystem::remove_all(dir);
}

TEST(CompactionDifferential, EntriesMixingSuitesKindsAndErrors) {
  // Every dictionary-coded column varies within an entry, and the two
  // entries meet the values in different orders, so each entry's codes
  // differ from the store's.
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 2, 13);
  const Dataset study = harness.run_study(sweep::StudyPlan::mini_plan(8, 3));
  Dataset forward, backward;
  for (std::size_t i = 0; i < study.size(); ++i) {
    Sample s = study.samples()[i];
    if (i % 4 == 1) {
      s.status = sweep::SampleStatus::Retried;
      s.error = "retry " + std::to_string(i % 3);
    }
    (i % 2 == 0 ? forward : backward).add(std::move(s));
  }
  std::vector<Sample> reversed(backward.samples().rbegin(),
                               backward.samples().rend());
  const std::string dir = temp_dir("dictionaries");
  const CompactReport report = expect_same_compaction(
      dir, write_journal(dir, {forward, Dataset(std::move(reversed))}));
  EXPECT_EQ(report.samples_out, study.size());
  const StoreReader reader(util::path_join(dir, "builder.omps"));
  EXPECT_GT(reader.suites().size(), 1u);
  EXPECT_GT(reader.kinds().size(), 1u);
  EXPECT_GT(reader.errors().size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(CompactionDifferential, OnlyAnEmptyEntry) {
  const std::string dir = temp_dir("empty");
  const CompactReport report =
      expect_same_compaction(dir, write_journal(dir, {Dataset()}));
  EXPECT_EQ(report.entries, 1u);
  EXPECT_EQ(report.samples_out, 0u);
  std::filesystem::remove_all(dir);
}

TEST(CompactionDifferential, NamesDifferingOnlyWhereTheSlashFallsBothSurvive) {
  // The one intended difference from the reference: sample_identity()
  // spells both rows "x/y/z/...", so the old dedupe dropped one.
  Sample left = mini_study().samples().front();
  left.arch = "x/y";
  left.app = "z";
  Sample right = left;
  right.arch = "x";
  right.app = "y/z";
  const std::string dir = temp_dir("slash");
  const sweep::StudyJournal journal(
      write_journal(dir, {Dataset(std::vector<Sample>{left}),
                          Dataset(std::vector<Sample>{right})})
          .journal);
  const std::string path = util::path_join(dir, "slash.omps");
  const CompactReport report = compact_journal(journal, path);
  EXPECT_EQ(report.samples_out, 2u);
  EXPECT_EQ(report.duplicates_dropped, 0u);
  const Dataset stored = Dataset::load_store(path);
  ASSERT_EQ(stored.size(), 2u);
  EXPECT_EQ(stored.samples()[0].arch, "x/y");
  EXPECT_EQ(stored.samples()[1].app, "y/z");
  std::filesystem::remove_all(dir);
}

// ---- tiered merges --------------------------------------------------------

/// Member stores exercising every merge rule: quarantined rows later
/// upgraded, retried rows, a full clean pass, an empty store and an
/// interleaved subset.
std::vector<std::string> member_stores(const std::string& dir) {
  const Dataset clean = mini_study(9);
  const std::size_t n = clean.size();
  Dataset interleaved;
  for (std::size_t i = 1; i < n; i += 3) interleaved.add(clean.samples()[i]);
  const std::vector<Dataset> members = {
      rows(clean, 0, n / 2,
           [](Sample& s, std::size_t i) {
             if (i % 4 == 1) quarantine(s, "member zero lost " + std::to_string(i));
           }),
      rows(clean, n / 3, n,
           [](Sample& s, std::size_t i) {
             if (i % 2 == 1) {
               s.status = sweep::SampleStatus::Retried;
               s.attempts = 2;
             }
           }),
      Dataset(),
      rows(clean, 0, n),
      interleaved,
  };
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < members.size(); ++i) {
    paths.push_back(util::path_join(dir, "member-" + std::to_string(i) + ".omps"));
    reference_write_store(paths.back(), members[i]);
  }
  return paths;
}

void expect_same_tiered(const std::vector<std::string>& inputs,
                        const std::string& dir, TieredOptions options) {
  const std::string expected_path = util::path_join(dir, "reference.omps");
  const std::string actual_path = util::path_join(dir, "builder.omps");
  TieredOptions reference_options = options;
  reference_options.scratch_dir = util::path_join(dir, "reference.tiers");
  options.scratch_dir = util::path_join(dir, "builder.tiers");
  for (int run = 0; run < 2; ++run) {  // the second run reuses intermediates
    const TieredReport expected =
        reference_tiered_compact(inputs, expected_path, reference_options);
    const TieredReport actual = tiered_compact(inputs, actual_path, options);
    EXPECT_EQ(actual.inputs, expected.inputs);
    EXPECT_EQ(actual.skipped_inputs, expected.skipped_inputs);
    EXPECT_EQ(actual.tiers, expected.tiers);
    EXPECT_EQ(actual.merges, expected.merges);
    EXPECT_EQ(actual.reused_intermediates, expected.reused_intermediates);
    EXPECT_EQ(actual.samples_in, expected.samples_in);
    EXPECT_EQ(actual.samples_out, expected.samples_out);
    EXPECT_EQ(actual.duplicates_dropped, expected.duplicates_dropped);
    EXPECT_EQ(actual.replaced, expected.replaced);
    EXPECT_EQ(actual.quarantined, expected.quarantined);
    EXPECT_EQ(actual.stale_intermediates_removed,
              expected.stale_intermediates_removed);
    EXPECT_EQ(bytes_of(actual_path), bytes_of(expected_path));
    if (run == 1 && options.keep_scratch) {
      EXPECT_GT(actual.reused_intermediates, 0u);
    }
  }
}

TEST(TieredDifferential, MultiLevelMergeOfOverlappingMembers) {
  const std::string dir = temp_dir("tiered");
  TieredOptions options;
  options.fan_in = 2;
  options.keep_scratch = true;
  expect_same_tiered(member_stores(dir), dir, options);
  std::filesystem::remove_all(dir);
}

TEST(TieredDifferential, OneGroupMerge) {
  const std::string dir = temp_dir("tiered_flat");
  expect_same_tiered(member_stores(dir), dir, TieredOptions{});
  std::filesystem::remove_all(dir);
}

TEST(TieredDifferential, LenientMergeSkipsACorruptInput) {
  const std::string dir = temp_dir("tiered_lenient");
  std::vector<std::string> inputs = member_stores(dir);
  std::string garbled = bytes_of(inputs[1]);
  garbled[garbled.size() / 2] ^= 0x5A;
  util::atomic_write_file(inputs[1], garbled);
  TieredOptions options;
  options.fan_in = 3;
  options.lenient = true;
  expect_same_tiered(inputs, dir, options);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace omptune::store
