#include "store/compact.hpp"

#include "store/writer.hpp"
#include "sweep/dataset.hpp"
#include "sweep/journal.hpp"
#include "util/fs.hpp"

namespace omptune::store {

CompactReport compact_journal(const sweep::StudyJournal& journal,
                              const std::string& out_path) {
  // Entries stream through the builder one at a time: only one entry's
  // Samples are ever alive, the kept rows live in column form.
  CompactReport report;
  StoreBuilder builder(StoreBuilder::Duplicates::Resolve);
  for (const std::string& name : journal.entry_files()) {
    const sweep::Dataset entry =
        sweep::Dataset::load_csv_file(util::path_join(journal.directory(), name));
    report.samples_in += entry.size();
    for (const sweep::Sample& sample : entry.samples()) builder.add(sample);
    ++report.entries;
  }
  report.duplicates_dropped = builder.dedupe().duplicates;
  report.replaced = builder.dedupe().replaced;
  report.samples_out = builder.rows();
  report.quarantined = builder.quarantined();
  util::atomic_write_file(out_path, std::move(builder).finish());
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
