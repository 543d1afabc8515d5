#pragma once

// Writer for the .omps binary columnar sample store (see format.hpp for the
// layout). StoreBuilder is the one encoder: it appends samples one at a
// time into the store's column buffers, optionally resolving duplicate
// measurements as rows arrive, and finish() lays the columns out as
// dictionary-coded, typed column blocks plus the embedded setting index.
// write_store replaces the destination atomically (temp file + fsync +
// rename, like the journal) so a reader never observes a half-written
// store.

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sweep/dataset.hpp"

namespace omptune::store {

class StoreReader;

/// Builds one .omps image row by row. Holds the rows in column form (no
/// Sample), and takes rows either as Samples or straight from another
/// store's columns, so a compaction of journal entries or member stores
/// never materializes a Sample at all.
class StoreBuilder {
 public:
  /// What add() does with a row whose sweep::SampleKey is already present.
  enum class Duplicates {
    Keep,     ///< store every row as given (serialize_store)
    Resolve,  ///< the sweep::Deduper rule: best status wins, first on a
              ///< tie, kept rows in first-appearance order (compaction)
  };

  explicit StoreBuilder(Duplicates duplicates) : duplicates_(duplicates) {}

  /// Append `sample`, or under Resolve fold it into the kept row of its
  /// identity. A replaced row is overwritten whole and leaves no trace.
  void add(const sweep::Sample& sample);

  /// add() every row of `store`, in row order, read from its columns. Runs
  /// store.ensure_scan_validated() first, so a store that fails any check
  /// throws util::DataCorruptionError before a row is added.
  void add(const StoreReader& store);

  /// Rows kept so far.
  std::size_t rows() const { return status_.size(); }
  /// Quarantined rows among them.
  std::size_t quarantined() const { return quarantined_; }
  /// Duplicates dropped and rows replaced so far (zero under Keep).
  const sweep::DedupeReport& dedupe() const { return deduper_.report(); }

  /// The .omps image of the kept rows. Dictionaries (first appearance in
  /// row order), the repetition count, the setting index and the finiteness
  /// checks all derive from the kept rows alone. Throws
  /// std::invalid_argument on data that cannot be stored faithfully
  /// (non-finite runtimes/means/speedups, more than 65535 distinct values
  /// in a u16-coded dictionary). Consumes the builder.
  std::string finish() &&;

 private:
  /// First-appearance interning of one string column. Codes are
  /// provisional: finish() renumbers them over the kept rows.
  struct Interner {
    std::deque<std::string> values;  ///< stable storage the views aim into
    std::unordered_map<std::string_view, std::uint32_t> codes;
    std::uint32_t code(const std::string& value);
  };

  /// One incoming row, its names already interned (codes index names_).
  struct Row {
    std::uint32_t codes[6];  ///< arch, app, input, suite, kind, error
    std::int32_t threads = 0;
    rt::RtConfig config;
    const double* runtimes = nullptr;
    std::size_t runtime_count = 0;
    double mean = 0.0, deflt = 0.0, speedup = 0.0;
    std::int32_t attempts = 0;
    sweep::SampleStatus status = sweep::SampleStatus::Ok;
    bool is_default = false;
  };

  sweep::SampleKey key_at(std::size_t row) const;
  void add(const Row& row);
  /// Write `row` into row `at` (== rows() appends).
  void store_row(std::size_t at, const Row& row);

  Duplicates duplicates_;
  sweep::Deduper deduper_;
  std::size_t quarantined_ = 0;
  /// arch, app, input, suite, kind, error — the format's dictionary order.
  Interner names_[6];
  std::vector<std::uint32_t> codes_[6];
  std::vector<std::int32_t> threads_;
  std::vector<std::int64_t> blocktime_;
  std::vector<std::int32_t> num_threads_, chunk_, align_, attempts_;
  std::vector<std::uint8_t> places_, bind_, schedule_, library_, reduction_;
  std::vector<std::uint8_t> status_, is_default_, barrier_;
  std::vector<double> mean_, default_, speedup_;
  /// Row r's runtimes: runtime_pool_[runtime_at_[r] .. + runtime_count_[r]].
  std::vector<double> runtime_pool_;
  std::vector<std::size_t> runtime_at_, runtime_count_;
};

/// Serialize `dataset` to `path` in .omps format v1 (atomic replace): every
/// row as given, through StoreBuilder(Keep). Throws std::invalid_argument
/// where StoreBuilder::finish does and std::runtime_error on I/O failure.
void write_store(const std::string& path, const sweep::Dataset& dataset);

/// In-memory serialization (the byte content write_store persists);
/// exposed for tests that corrupt specific offsets.
std::string serialize_store(const sweep::Dataset& dataset);

}  // namespace omptune::store
