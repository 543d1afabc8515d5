#include "store/compact.hpp"

#include "store/reader.hpp"
#include "store/writer.hpp"
#include "sweep/journal.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace omptune::store {

CompactReport compact_journal(const sweep::StudyJournal& journal,
                              const std::string& out_path) {
  const std::vector<std::string> legacy = journal.legacy_entry_files();
  if (!legacy.empty()) {
    throw util::DataCorruptionError(
        util::path_join(journal.directory(), legacy.front()) +
        ": legacy CSV journal entry (written before journal entries were "
        ".omps stores); rerun the study with --resume to recollect its "
        "setting");
  }
  // Entries stream through the builder one at a time, straight from their
  // columns: no Sample is materialized, the kept rows live in column form.
  CompactReport report;
  StoreBuilder builder(StoreBuilder::Duplicates::Resolve);
  for (const std::string& name : journal.entry_files()) {
    const StoreReader entry = sweep::StudyJournal::open_entry(
        util::path_join(journal.directory(), name));
    report.samples_in += entry.size();
    builder.add(entry);
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
