#pragma once

// Store compaction: fold many .omps stores into one indexed .omps store.
// The one merge of the system. A journaled study folds its per-setting
// entries (StudyJournal::compact) and the coordinator folds its shard
// stores through it — the bridge from the fault-tolerant collection layout
// (one small atomic file per setting or shard) to the query layout (one
// mmap-able file per study).
//
// Inputs stream, in order, through one StoreBuilder that deduplicates by
// measurement identity, best status winning (Ok > Retried > Quarantined),
// row by row from the inputs' columns, so no Sample is ever materialized
// and only one input is open at a time. The built image is validated in
// memory, then published atomically (temp file + rename + directory
// fsync): a compaction killed at any point leaves either the previous
// output or the new one, never a torn file.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace omptune::store {

class StoreReader;

struct CompactOptions {
  /// Skip (with a progress line) inputs that cannot be opened or fail
  /// store validation instead of aborting; each is named in the report.
  bool lenient = false;
  /// Receives one line per skipped input. Null = silent.
  std::function<void(const std::string&)> progress;
};

/// One input dropped by a lenient compaction, and why.
struct SkippedInput {
  std::string path;
  std::string reason;  ///< the open or validation error

  bool operator==(const SkippedInput&) const = default;
};

/// Outcome tally of one compaction.
struct CompactReport {
  std::size_t inputs = 0;                    ///< input stores offered
  std::vector<SkippedInput> skipped_inputs;  ///< inputs dropped under lenient
  std::size_t samples_in = 0;                ///< rows read from the inputs
  std::size_t samples_out = 0;               ///< rows in the published store
  std::size_t duplicates_dropped = 0;  ///< rows dropped as duplicate identities
  std::size_t replaced = 0;            ///< kept rows upgraded by a better status
  std::size_t quarantined = 0;         ///< quarantined rows in the output
  /// Always 1, there being one merge; kept because perfbench/fleet.cpp
  /// reports it.
  std::size_t merges = 1;
};

/// Opens one input. The default maps the file (StoreReader(path)); the
/// journal passes StudyJournal::open_entry, which reads buffered and
/// reports an unopenable entry as util::DataCorruptionError.
using StoreOpener = StoreReader (*)(const std::string& path);

/// Merge the stores at `inputs`, in order, into one store at `out_path`
/// (atomic replace). In strict mode, throws before writing anything:
/// util::StoreOpenError when an input cannot be opened (default opener)
/// and util::DataCorruptionError, naming file and offset, when one fails
/// validation.
CompactReport compact(const std::vector<std::string>& inputs,
                      const std::string& out_path,
                      const CompactOptions& options = {},
                      StoreOpener open = nullptr);

}  // namespace omptune::store
