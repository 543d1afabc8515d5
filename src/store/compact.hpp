#pragma once

// Journal compaction: fold the many per-setting CSV entries a journaled
// study leaves behind into one indexed .omps store. This is the bridge from
// the fault-tolerant collection format (one small atomic file per setting)
// to the query format (one mmap-able file per study) — analyze/recommend
// then parse no CSV at all.

#include <cstddef>
#include <string>

namespace omptune::sweep {
class StudyJournal;
}

namespace omptune::store {

/// Outcome tally of one compaction run.
struct CompactReport {
  std::size_t entries = 0;            ///< journal CSV files folded in
  std::size_t samples_in = 0;         ///< rows read across all entries
  std::size_t samples_out = 0;        ///< rows written to the store
  std::size_t duplicates_dropped = 0; ///< rows dropped as duplicate identities
  std::size_t replaced = 0;           ///< kept rows upgraded by a better status
  std::size_t quarantined = 0;        ///< quarantined rows in the output
};

/// Compact every completed entry of `journal` into an .omps store at
/// `out_path` (atomic replace). Entries stream in file-name order through
/// one StoreBuilder that deduplicates by measurement identity, best status
/// winning — the behavior StudyJournal::compact documents — so only one
/// entry's Samples are held at a time. Throws util::DataCorruptionError if
/// any entry fails CSV validation.
CompactReport compact_journal(const sweep::StudyJournal& journal,
                              const std::string& out_path);

}  // namespace omptune::store
