#pragma once

// mmap-backed zero-copy reader for the .omps binary sample store.
//
// Opening a store validates the header, the section table, the string
// dictionaries, the key columns and the setting index — everything a query
// needs to trust, all metadata-sized. The bulk blocks (config/stat columns,
// runtime matrix) are NOT touched at open: an indexed query materializes
// only the rows whose (arch, app, input, threads) key matches, so a
// recommendation for one pair never reads the other settings' runtime
// blocks (the kernel never even pages them in). A full load() verifies
// every section checksum before materializing, making it the
// corruption-proof path for `analyze`-style whole-dataset consumers.
//
// Every validation failure throws util::DataCorruptionError carrying the
// file path and the byte offset of the offending structure.
//
// Thread-safety contract: after construction, a StoreReader is a read-only
// view and every const member — load(), query(), setting_slice(),
// settings() — may be called concurrently from any number of threads. The
// only mutable state is the runtime-bytes instrumentation counter (atomic)
// and the scan validation latch (std::once_flag); neither affects results.
// Construction and destruction are not synchronized against concurrent use
// of the same instance, as usual.

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sweep/dataset.hpp"
#include "util/mmap_file.hpp"

namespace omptune::util {
class ThreadPool;
}

namespace omptune::store {

enum class SectionKind : std::uint32_t;  // store/format.hpp

/// Conjunctive row filter over the indexed setting key; unset fields match
/// everything. An empty query selects the whole store.
struct StoreQuery {
  std::optional<std::string> arch;
  std::optional<std::string> app;
  std::optional<std::string> input;
  std::optional<int> threads;
};

/// One index entry: a run of rows sharing a setting key.
struct SettingEntry {
  std::string arch, app, input;
  int threads = 0;
  std::size_t first_row = 0;
  std::size_t rows = 0;
};

/// Zero-copy view of one setting's run of rows: every pointer aims straight
/// into the store mapping, offset to the run's first row, so an aggregation
/// walks contiguous typed columns without materializing a single Sample.
/// Valid exactly as long as the StoreReader that produced it. Row indices
/// below are run-relative: 0 .. rows-1.
struct SettingSlice {
  const std::string* arch = nullptr;   ///< dictionary-owned key strings
  const std::string* app = nullptr;
  const std::string* input = nullptr;
  std::int32_t threads = 0;
  std::size_t setting_index = 0;       ///< position in the embedded index
  std::size_t first_row = 0;           ///< absolute row of the run's start
  std::size_t rows = 0;
  std::size_t reps = 0;                ///< runtime slots per row

  // Stat columns (f64).
  const double* mean_runtime = nullptr;
  const double* default_runtime = nullptr;
  const double* speedup = nullptr;
  // Runtime matrix: row i's measurements at runtimes[i * reps], of which
  // runtime_count[i] are real (the rest are zero padding).
  const double* runtimes = nullptr;
  const std::uint16_t* runtime_count = nullptr;
  // Config columns.
  const std::int64_t* blocktime = nullptr;
  const std::int32_t* num_threads = nullptr;
  const std::int32_t* chunk = nullptr;
  const std::int32_t* align = nullptr;
  const std::int32_t* attempts = nullptr;
  const std::uint16_t* suite = nullptr;  ///< suite-dictionary codes
  const std::uint16_t* kind = nullptr;   ///< kind-dictionary codes
  const std::uint8_t* places = nullptr;
  const std::uint8_t* bind = nullptr;
  const std::uint8_t* schedule = nullptr;
  const std::uint8_t* library = nullptr;
  const std::uint8_t* reduction = nullptr;
  const std::uint8_t* status = nullptr;
  const std::uint8_t* is_default = nullptr;
  const std::uint32_t* error = nullptr;  ///< error-dictionary codes

  bool quarantined(std::size_t i) const {
    return static_cast<sweep::SampleStatus>(status[i]) ==
           sweep::SampleStatus::Quarantined;
  }

  /// Decode row i's runtime configuration (enum bytes were validated by the
  /// scan checksum pass, so the casts are safe).
  rt::RtConfig config(std::size_t i) const {
    rt::RtConfig c;
    c.blocktime_ms = blocktime[i];
    c.num_threads = num_threads[i];
    c.chunk = chunk[i];
    c.align_alloc = align[i];
    c.places = static_cast<arch::PlacesKind>(places[i]);
    c.bind = static_cast<arch::BindKind>(bind[i]);
    c.schedule = static_cast<rt::ScheduleKind>(schedule[i]);
    c.library = static_cast<rt::LibraryMode>(library[i]);
    c.reduction = static_cast<rt::ReductionMethod>(reduction[i]);
    return c;
  }
};

class StoreReader {
 public:
  /// Opens and validates `path` (see file comment for what open checks).
  /// A file that cannot be opened/mapped at all throws
  /// util::StoreOpenError naming the path; validation failures throw
  /// util::DataCorruptionError with path and offset.
  explicit StoreReader(const std::string& path);

  /// Same, labeled with the serving `generation` the open is for: both the
  /// open error and every corruption message then carry "generation N" so
  /// a failed hot-swap is attributable to the exact store it tried to
  /// adopt (see serve::Snapshot).
  StoreReader(const std::string& path, std::uint64_t generation);

  /// Reads `dataset` through its in-memory .omps image
  /// (store::serialize_store): every check a file open runs, with errors
  /// naming the path "<in-memory dataset>". This is how a Dataset is
  /// analysed. Throws std::invalid_argument where serialize_store does
  /// (non-finite values, dictionary overflow).
  explicit StoreReader(const sweep::Dataset& dataset);

  const std::string& path() const { return file_.path(); }

  /// Serving-generation label this reader was opened under (0: unlabeled).
  std::uint64_t generation() const { return generation_; }
  std::size_t size() const { return sample_count_; }
  std::size_t repetitions() const { return reps_; }
  std::uint64_t file_bytes() const { return file_.size(); }

  /// Whether the store is served from a real kernel mapping. False on the
  /// buffered-read fallback (mmap-refusing filesystems, OMPTUNE_NO_MMAP=1):
  /// same query results, just without the zero-copy property.
  bool memory_mapped() const { return file_.memory_mapped(); }

  /// Dictionary views (first-appearance order, as written).
  const std::vector<std::string>& archs() const { return dicts_[0]; }
  const std::vector<std::string>& apps() const { return dicts_[1]; }
  const std::vector<std::string>& inputs() const { return dicts_[2]; }

  /// The embedded setting index, in row order.
  std::vector<SettingEntry> settings() const;

  /// Materialize every sample. Verifies the checksum of every section
  /// first: a flipped byte anywhere in the file is rejected, never loaded.
  /// With a pool, rows materialize in parallel (the result is identical —
  /// each row is independent and lands at its own position).
  sweep::Dataset load(const util::ThreadPool* pool = nullptr) const;

  /// Every check load() runs, but rows materialize one at a time into one
  /// reused Sample that `visit` sees, in row order: a streaming consumer
  /// (tiered compaction's validation passes) never holds more than a row.
  void for_each_sample(const std::function<void(const sweep::Sample&)>& visit) const;

  /// Materialize only the rows matching `query`, located via the index.
  /// Skips whole-section checksums by design (the point is not reading the
  /// non-matching blocks); every value actually materialized is range- and
  /// finiteness-checked instead.
  sweep::Dataset query(const StoreQuery& query) const;

  /// Number of runs in the embedded setting index.
  std::size_t setting_count() const { return index_.size(); }

  /// Zero-copy column view of index run `i` (see SettingSlice) — the
  /// aggregation path: no Dataset, no Sample, no copies. Requires a prior
  /// ensure_scan_validated() on this reader — the slice hands out raw
  /// bulk-section pointers, so the bulk checksums must have been verified
  /// first.
  SettingSlice setting_slice(std::size_t i) const;

  /// Verify the bulk-section checksums once (idempotent, thread-safe);
  /// throws util::DataCorruptionError on a mismatch. The metadata sections
  /// were verified at open; this covers config, stats, runtimes and errors.
  void ensure_scan_validated() const;

  /// Bytes of the runtime block materialized so far by load()/query() on
  /// this reader — instrumentation for the bench/tests proving that queries
  /// leave non-matching runtime blocks untouched. (ensure_scan_validated()
  /// counts the whole runtime section once: the checksum pass reads it.)
  /// Atomic so concurrent load()/query()/validation on one reader tally
  /// without racing.
  std::uint64_t runtime_bytes_touched() const {
    return runtime_bytes_touched_.load(std::memory_order_relaxed);
  }

 private:
  struct Section {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
    std::uint64_t table_entry_offset = 0;  ///< for error reporting
  };

  /// Validates `file` (see the file comment); every public constructor
  /// lands here.
  StoreReader(util::MappedFile file, std::uint64_t generation);

  [[noreturn]] void corrupt(std::uint64_t offset, const std::string& message) const;
  const unsigned char* at(const Section& section, std::size_t offset) const;
  /// Checksum the `kinds` sections together; throws for the first (in
  /// `kinds` order) whose digest does not match its table entry.
  void verify_checksums(std::initializer_list<SectionKind> kinds) const;
  /// Fill `s` (default-constructed) from row `row`; returns the runtime
  /// bytes read, for runtime_bytes_touched().
  std::size_t materialize_row(std::size_t row, sweep::Sample& s) const;
  std::uint16_t dict_code(const Section& key_section, std::size_t column_offset,
                          std::size_t row, std::size_t dict, const char* what) const;

  util::MappedFile file_;
  std::uint64_t generation_ = 0;
  std::size_t sample_count_ = 0;
  std::size_t reps_ = 0;
  Section sections_[7];  ///< indexed by SectionKind - 1
  /// arch, app, input, suite, kind, error — dictionary order of the format.
  std::vector<std::string> dicts_[6];
  struct IndexRun {
    std::uint16_t arch, app, input;
    std::int32_t threads;
    std::uint64_t first_row, row_count;
  };
  std::vector<IndexRun> index_;
  mutable std::atomic<std::uint64_t> runtime_bytes_touched_{0};
  mutable std::once_flag scan_validated_;
};

}  // namespace omptune::store
