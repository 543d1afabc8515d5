#include "sweep/journal.hpp"

#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "store/compact.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"

namespace omptune::sweep {

namespace {

constexpr const char* kEntryExtension = ".omps";
constexpr const char* kLegacyExtension = ".csv";

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

/// Sorted names of the files in `dir` ending in `extension`.
std::vector<std::string> files_ending(const std::string& dir,
                                      std::string_view extension) {
  std::vector<std::string> out;
  for (const std::string& name : util::list_files(dir)) {
    if (name.size() > extension.size() && name.ends_with(extension)) {
      out.push_back(name);
    }
  }
  return out;
}

/// `path`'s bytes, read rather than mapped; a file that cannot be opened
/// or read is corruption of the journal, named by its path.
util::MappedFile read_entry_file(const std::string& path) {
  try {
    return util::MappedFile(path, util::MappedFile::Mode::ForceBuffered);
  } catch (const std::exception& error) {
    throw util::DataCorruptionError(path + ": " + error.what());
  }
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

std::string StudyJournal::path_for(const std::string& key,
                                   const char* extension) const {
  return util::path_join(directory_, sanitize(key) + "-" + hash16(key) + extension);
}

std::string StudyJournal::entry_path(const std::string& key) const {
  return path_for(key, kEntryExtension);
}

bool StudyJournal::contains(const std::string& key) const {
  return util::file_exists(entry_path(key));
}

void StudyJournal::record(const std::string& key, const Dataset& batch) const {
  std::string image;
  try {
    image = store::serialize_store(batch);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument("journal entry '" + key + "': " + error.what());
  }
  util::atomic_write_file(entry_path(key), image);
}

Dataset StudyJournal::load(const std::string& key,
                           std::size_t expected_samples) const {
  const std::string path = entry_path(key);
  if (!util::file_exists(path)) {
    throw util::DataCorruptionError("journal entry '" + key +
                                    "' missing from " + directory_);
  }
  const store::StoreReader entry = open_entry(path);
  if (expected_samples > 0 && entry.size() != expected_samples) {
    throw util::DataCorruptionError(
        path + ": journal entry for '" + key + "' holds " +
        std::to_string(entry.size()) + " samples, expected " +
        std::to_string(expected_samples));
  }
  return entry.load();
}

void StudyJournal::discard(const std::string& key) const {
  util::remove_file_durable(entry_path(key));
}

bool StudyJournal::discard_legacy(const std::string& key) const {
  const std::string path = path_for(key, kLegacyExtension);
  return util::file_exists(path) && util::remove_file_durable(path);
}

store::StoreReader StudyJournal::open_entry(const std::string& path) {
  return store::StoreReader(read_entry_file(path));
}

std::vector<std::string> StudyJournal::entry_files() const {
  return files_ending(directory_, kEntryExtension);
}

std::vector<std::string> StudyJournal::legacy_entry_files() const {
  return files_ending(directory_, kLegacyExtension);
}

store::CompactReport StudyJournal::compact(const std::string& out_path) const {
  const std::vector<std::string> legacy = legacy_entry_files();
  if (!legacy.empty()) {
    throw util::DataCorruptionError(
        util::path_join(directory_, legacy.front()) +
        ": legacy CSV journal entry (written before journal entries were "
        ".omps stores); rerun the study with --resume to recollect its "
        "setting");
  }
  std::vector<std::string> entries;
  for (const std::string& name : entry_files()) {
    entries.push_back(util::path_join(directory_, name));
  }
  return store::compact(entries, out_path, {}, &StudyJournal::open_entry);
}

}  // namespace omptune::sweep
