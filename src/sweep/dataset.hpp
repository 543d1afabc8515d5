#pragma once

// The study dataset: one Sample per unique (architecture, application,
// input/threads setting, configuration), carrying all repetition runtimes
// and the derived speedup over the setting's default configuration — the
// tabular files the paper open-sources.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rt/config.hpp"
#include "util/csv.hpp"

namespace omptune::sweep {

/// Collection status of one sample. Anything other than Ok means the
/// measurement pipeline intervened; Quarantined samples carry no valid
/// runtime and MUST be excluded from speedup enrichment and downstream
/// statistics/ML (see analysis::best_per_setting, core::Study::analyze).
enum class SampleStatus {
  Ok,          ///< measured first try
  Retried,     ///< measured after >= 1 transient failure
  Quarantined  ///< all attempts failed; runtimes are placeholders (0)
};

std::string to_string(SampleStatus status);
SampleStatus sample_status_from_string(const std::string& text);

/// Duplicate-resolution rank: lower is better. When the same measurement
/// key appears in multiple shards or journal entries, the sample with the
/// lowest rank wins (Ok over Retried over Quarantined) — a re-collected
/// clean measurement must beat a quarantined placeholder, never lose to it
/// by arrival order.
int status_preference(SampleStatus status);

struct Sample {
  std::string arch;
  std::string app;
  std::string suite;
  std::string kind;        ///< "loop" or "task"
  std::string input;       ///< input-size name
  int threads = 0;         ///< resolved team size
  rt::RtConfig config;
  std::vector<double> runtimes;  ///< R0..Rk
  double mean_runtime = 0.0;
  double default_runtime = 0.0;  ///< mean runtime of the setting's default
  double speedup = 0.0;          ///< default_runtime / mean_runtime
  bool is_default = false;
  SampleStatus status = SampleStatus::Ok;
  int attempts = 1;        ///< measurement attempts consumed (max over reps)
  std::string error;       ///< last failure message when status != Ok

  bool is_quarantined() const { return status == SampleStatus::Quarantined; }
};

/// Measurement identity of a sample: "arch/app/input/threads/<config key>".
/// Two samples with equal identity are the same measurement collected twice
/// (overlapping shards, re-recorded journal entries). Dedupe compares
/// SampleKey, not this string: the joined form cannot tell arch "x/y" with
/// app "z" from arch "x" with app "y/z".
std::string sample_identity(const Sample& sample);

/// Allocation-free measurement identity, the key every dedupe compares:
/// the names, the team size and the configuration fields normalised the
/// way rt::RtConfig::key() normalises them (num_threads, chunk and
/// align_alloc <= 0 all mean "derived default"). For names without '/',
/// two keys are equal exactly when the samples' sample_identity() strings
/// are. The names are views, valid as long as the strings they came from.
struct SampleKey {
  std::string_view arch, app, input;
  int threads = 0;
  int num_threads = 0;
  int chunk = 0;
  int align_alloc = 0;
  std::int64_t blocktime_ms = 0;
  arch::PlacesKind places = arch::PlacesKind::Unset;
  arch::BindKind bind = arch::BindKind::Unset;
  rt::ScheduleKind schedule = rt::ScheduleKind::Static;
  rt::LibraryMode library = rt::LibraryMode::Throughput;
  rt::ReductionMethod reduction = rt::ReductionMethod::Default;
  rt::BarrierKind barrier = rt::BarrierKind::Auto;

  SampleKey(std::string_view arch, std::string_view app,
            std::string_view input, int threads, const rt::RtConfig& config);
  explicit SampleKey(const Sample& sample)
      : SampleKey(sample.arch, sample.app, sample.input, sample.threads,
                  sample.config) {}

  bool operator==(const SampleKey&) const = default;
  std::size_t hash() const;
};

/// Outcome tally of a dedupe pass.
struct DedupeReport {
  std::size_t duplicates = 0;  ///< samples dropped as duplicate identities
  std::size_t replaced = 0;    ///< kept samples upgraded by a better status
};

/// The one duplicate-resolution rule, applied by the store builder and so
/// by every compaction: samples arrive in order, the first occurrence of a
/// SampleKey takes the next position, and a later one replaces the kept
/// occurrence only when its status_preference is strictly better (so ties
/// keep the first). Kept samples therefore stay in first-appearance order.
/// An open-addressing table of positions: the keys themselves live with the
/// caller, who reads one back through `key_at`.
class Deduper {
 public:
  enum class Verdict {
    Added,     ///< first occurrence: kept at the offered position
    Dropped,   ///< duplicate no better than the kept occurrence
    Replaces,  ///< duplicate with a better status: overwrites the kept one
  };

  /// Admit a sample with `key` and `status`, offering `position` for a new
  /// identity. On Dropped and Replaces, `position` is set to the kept
  /// occurrence's. `key_at(p)` returns the key of the sample kept at p.
  template <typename KeyAt>
  Verdict admit(const SampleKey& key, SampleStatus status,
                std::size_t& position, const KeyAt& key_at) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    const std::size_t hash = key.hash();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (!slot.used) {
        slot = Slot{hash, position, status, true};
        ++used_;
        return Verdict::Added;
      }
      if (slot.hash != hash || !(key_at(slot.position) == key)) continue;
      position = slot.position;
      ++report_.duplicates;
      if (status_preference(status) >= status_preference(slot.status)) {
        return Verdict::Dropped;
      }
      slot.status = status;
      ++report_.replaced;
      return Verdict::Replaces;
    }
  }

  const DedupeReport& report() const { return report_; }

 private:
  struct Slot {
    std::size_t hash = 0;
    std::size_t position = 0;
    SampleStatus status = SampleStatus::Ok;
    bool used = false;
  };

  void grow();

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  DedupeReport report_;
};

/// Column-stable dataset container.
class Dataset {
 public:
  Dataset() = default;

  /// Adopt an already-built sample vector (parallel materialization paths
  /// fill a pre-sized vector by index, then wrap it).
  explicit Dataset(std::vector<Sample> samples)
      : samples_(std::move(samples)) {}

  void add(Sample sample) { samples_.push_back(std::move(sample)); }
  /// Move `other`'s samples onto the end. Capacity grows geometrically, so
  /// a loop of appends moves each sample O(1) times amortised.
  void append(Dataset other);
  void reserve(std::size_t n) { samples_.reserve(n); }

  const std::vector<Sample>& samples() const { return samples_; }
  std::size_t size() const { return samples_.size(); }

  /// Samples matching a predicate, by value (grouping helper).
  template <typename Pred>
  Dataset filter(Pred&& pred) const {
    Dataset out;
    for (const Sample& s : samples_) {
      if (pred(s)) out.add(s);
    }
    return out;
  }

  /// Distinct values of a string field selector across the dataset,
  /// in first-appearance order.
  template <typename Selector>
  std::vector<std::string> distinct(Selector&& sel) const {
    std::vector<std::string> out;
    for (const Sample& s : samples_) {
      const std::string value = sel(s);
      if (std::find(out.begin(), out.end(), value) == out.end()) {
        out.push_back(value);
      }
    }
    return out;
  }

  /// Samples whose status is not Quarantined — the only rows statistics and
  /// ML paths may consume.
  Dataset ok_samples() const {
    return filter([](const Sample& s) { return !s.is_quarantined(); });
  }

  /// Number of quarantined samples.
  std::size_t quarantined_count() const;

  /// Put every sample into its published form: exactly the values its CSV
  /// text (csv_text) reads back as. Runtimes, mean_runtime and
  /// default_runtime are rounded to the encoder's 9 decimals and speedup
  /// to its 6 (util::round_fixed_double); runtime lists are zero-padded to
  /// the longest, as the CSV pads them; config.num_threads becomes
  /// `threads`, and chunk and barrier, which the schema does not carry,
  /// return to their defaults. Collection returns every batch in this form
  /// (SweepHarness::run_setting, quarantined_setting_dataset), so journaled,
  /// unjournaled and supervised runs publish the same values.
  void publish();

  /// Serialize to the open-data CSV schema (one row per sample, one column
  /// per variable plus all repetition runtimes; rows with fewer runtimes
  /// are padded with "0"). Streams every row straight into the text.
  std::string csv_text() const;

  /// The same CSV as cells, for callers that inspect or edit them.
  util::CsvTable to_csv() const;

  /// Parse a dataset back from its CSV text. `source` names the origin
  /// (file name) for error messages. Malformed rows raise
  /// util::DataCorruptionError carrying `source` and the 1-based data row
  /// number; non-finite runtime/speedup fields are rejected the same way.
  static Dataset from_csv_text(std::string_view text,
                               const std::string& source = "");

  /// from_csv_text over already-split cells.
  static Dataset from_csv(const util::CsvTable& table,
                          const std::string& source = "");

  /// Load a dataset CSV file. Every failure mode — unreadable file, broken
  /// quoting, short rows, non-numeric or non-finite fields, a garbled
  /// runtime_N column block — surfaces as util::DataCorruptionError; this
  /// never returns a silently truncated dataset.
  static Dataset load_csv_file(const std::string& path);

  /// Serialize to the binary columnar store format (.omps): dictionary-coded
  /// string columns, packed config fields, contiguous runtime blocks and an
  /// embedded (arch, app, input, threads) index. Atomic replace, like the
  /// journal's entry writes.
  void save_store(const std::string& path) const;

  /// Load a .omps store file (full materialization, every section checksum
  /// verified). Throws util::DataCorruptionError naming file and offset on any
  /// corruption. For indexed partial reads, use store::StoreReader directly.
  static Dataset load_store(const std::string& path);

 private:
  std::vector<Sample> samples_;
};

}  // namespace omptune::sweep
