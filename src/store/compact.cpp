#include "store/compact.hpp"

#include "store/writer.hpp"
#include "sweep/dataset.hpp"
#include "sweep/journal.hpp"
#include "util/fs.hpp"

namespace omptune::store {

CompactReport compact_journal(const sweep::StudyJournal& journal,
                              const std::string& out_path) {
  CompactReport report;
  sweep::Dataset combined;
  for (const std::string& name : journal.entry_files()) {
    sweep::Dataset entry =
        sweep::Dataset::load_csv_file(util::path_join(journal.directory(), name));
    report.samples_in += entry.size();
    combined.append(std::move(entry));
    ++report.entries;
  }

  sweep::Dataset::DedupeReport dedupe;
  sweep::Dataset deduped = std::move(combined).deduped(&dedupe);
  report.duplicates_dropped = dedupe.duplicates;
  report.replaced = dedupe.replaced;
  report.samples_out = deduped.size();
  report.quarantined = deduped.quarantined_count();

  write_store(out_path, deduped);
  return report;
}

}  // namespace omptune::store

namespace omptune::sweep {

// Declared in sweep/journal.hpp, implemented here so the base sweep library
// carries no dependency on the store format.
store::CompactReport StudyJournal::compact(const std::string& out_path) const {
  return store::compact_journal(*this, out_path);
}

}  // namespace omptune::sweep
