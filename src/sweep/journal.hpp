#pragma once

// Write-ahead journal for resumable studies.
//
// A study is a sequence of settings; the journal persists each setting's
// samples to its own .omps store file (the format of store/format.hpp) the
// moment the setting completes, via an atomic temp-file + fsync + rename
// write (util::atomic_write_file). A crash therefore loses at most the
// in-flight setting; on resume the harness replays completed settings from
// disk and recollects only the rest. Because per-setting RNG seeds derive
// from the setting key (not the global sequence position), and every batch
// is born in the published form (Dataset::publish), a resumed study is
// bit-identical to an uninterrupted one.
//
// Layout: <dir>/<sanitized-key>-<hash16>.omps — human-greppable prefix plus
// a stable 64-bit hash so distinct keys can never collide after
// sanitization. Every read of an entry goes through store::StoreReader with
// every section checksum verified and, when the caller knows it, the sample
// count; every validation failure surfaces as util::DataCorruptionError,
// never as a silently short dataset. Entries written before the journal
// used the store format (<sanitized-key>-<hash16>.csv) are legacy: no
// reader accepts them. Collection discards them and recollects their
// settings (discard_legacy); compaction refuses a journal that holds one.

#include <cstddef>
#include <string>
#include <vector>

#include "sweep/dataset.hpp"

namespace omptune::store {
struct CompactReport;
class StoreReader;
}

namespace omptune::sweep {

class StudyJournal {
 public:
  /// Opens (and creates, if needed) the journal directory.
  explicit StudyJournal(std::string directory);

  const std::string& directory() const { return directory_; }

  /// Whether a completed entry for `key` exists.
  bool contains(const std::string& key) const;

  /// Persist `batch` under `key` as an .omps store (atomic replace),
  /// exactly as given: collection publishes every batch where it is made
  /// (SweepHarness::run_setting, quarantined_setting_dataset), so what the
  /// caller goes on to use is what a resume would load. Throws
  /// util::StorageError on a failed write, and std::invalid_argument,
  /// naming `key` and writing nothing, on a batch no store can hold (a
  /// non-finite runtime, mean or speedup; see store::StoreBuilder::finish).
  void record(const std::string& key, const Dataset& batch) const;

  /// Load the entry for `key`. `expected_samples` > 0 additionally asserts
  /// the stored sample count. Throws util::DataCorruptionError on a
  /// missing, malformed, or short entry.
  Dataset load(const std::string& key, std::size_t expected_samples = 0) const;

  /// Remove the entry for `key` if present (durable: the parent directory
  /// is fsynced, so a discarded entry cannot resurrect after power loss).
  void discard(const std::string& key) const;

  /// Durably remove a legacy CSV entry for `key`, if there is one; returns
  /// whether one was removed. Its setting must then be recollected.
  bool discard_legacy(const std::string& key) const;

  /// Open the entry (or any journal-written store) at `path`, reading it
  /// into memory rather than mapping it: an entry shrunk under a mapping
  /// would raise SIGBUS instead of a typed error. Every store check runs.
  /// A file that cannot be opened or read throws util::DataCorruptionError
  /// naming `path`, like one that fails validation, so every reader of an
  /// entry (load, compaction) handles one error type.
  static store::StoreReader open_entry(const std::string& path);

  /// File names of the completed entries, sorted.
  std::vector<std::string> entry_files() const;

  /// File names of legacy CSV entries, sorted.
  std::vector<std::string> legacy_entry_files() const;

  /// File path backing `key` (exposed for tests that corrupt entries).
  std::string entry_path(const std::string& key) const;

  /// Compact every completed entry into one .omps store file at
  /// `out_path` (store::compact): entries are concatenated in
  /// file-name order and deduplicated by measurement identity — the
  /// best-status occurrence wins (Ok over Retried over Quarantined), so a
  /// re-recorded setting never resurrects a quarantined placeholder.
  /// Throws util::DataCorruptionError if any entry fails validation or the
  /// journal holds a legacy CSV entry.
  store::CompactReport compact(const std::string& out_path) const;

 private:
  /// `key`'s entry path with the given extension.
  std::string path_for(const std::string& key, const char* extension) const;

  std::string directory_;
};

}  // namespace omptune::sweep
