#include "sweep/journal.hpp"

#include <cctype>
#include <cstdio>

#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace omptune::sweep {

namespace {

/// Filesystem-safe rendering of a setting key; uniqueness comes from the
/// appended hash, the prefix only keeps the files greppable.
std::string sanitize(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (const char c : key) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  if (out.size() > 80) out.resize(80);
  return out;
}

std::string hash16(const std::string& key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(util::stable_hash(key)));
  return buf;
}

}  // namespace

StudyJournal::StudyJournal(std::string directory)
    : directory_(std::move(directory)) {
  util::create_directories(directory_);
  // Writers SIGKILLed between temp-file open and rename leave droppings
  // behind; the journal owns its directory exclusively, so they are always
  // stale here and must not accumulate across crash/resume cycles.
  util::remove_stale_temp_files(directory_);
}

std::string StudyJournal::entry_path(const std::string& key) const {
  return util::path_join(directory_, sanitize(key) + "-" + hash16(key) + ".csv");
}

bool StudyJournal::contains(const std::string& key) const {
  return util::file_exists(entry_path(key));
}

void StudyJournal::record(const std::string& key, const Dataset& dataset) const {
  util::atomic_write_file(entry_path(key), dataset.csv_text());
}

Dataset StudyJournal::load(const std::string& key,
                           std::size_t expected_samples) const {
  const std::string path = entry_path(key);
  if (!util::file_exists(path)) {
    throw util::DataCorruptionError("journal entry '" + key +
                                    "' missing from " + directory_);
  }
  Dataset dataset = Dataset::load_csv_file(path);
  if (expected_samples > 0 && dataset.size() != expected_samples) {
    throw util::DataCorruptionError(
        path + ": journal entry for '" + key + "' holds " +
        std::to_string(dataset.size()) + " samples, expected " +
        std::to_string(expected_samples));
  }
  return dataset;
}

void StudyJournal::discard(const std::string& key) const {
  util::remove_file_durable(entry_path(key));
}

void StudyJournal::adopt(const StudyJournal& other, const std::string& key) const {
  if (!other.contains(key)) return;
  if (!contains(key)) {
    util::rename_file(other.entry_path(key), entry_path(key));
    return;
  }
  // Both sides hold the key: merge by measurement identity, best status
  // wins. Deterministic collection makes the common duplicate identical,
  // but a quarantined placeholder must never shadow a clean recollection.
  Dataset combined = load(key);
  combined.append(other.load(key));
  record(key, std::move(combined).deduped());
  other.discard(key);
}

std::vector<std::string> StudyJournal::entry_files() const {
  std::vector<std::string> out;
  for (const std::string& name : util::list_files(directory_)) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".csv") {
      out.push_back(name);
    }
  }
  return out;
}

}  // namespace omptune::sweep
