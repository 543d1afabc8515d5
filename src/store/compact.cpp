#include "store/compact.hpp"

#include "store/reader.hpp"
#include "store/writer.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace omptune::store {

CompactReport compact(const std::vector<std::string>& inputs,
                      const std::string& out_path,
                      const CompactOptions& options, StoreOpener open) {
  CompactReport report;
  report.inputs = inputs.size();
  // Inputs stream through the builder one at a time, straight from their
  // columns: no Sample is materialized, the kept rows live in column form.
  StoreBuilder builder(StoreBuilder::Duplicates::Resolve);
  for (const std::string& path : inputs) {
    const auto forgive = [&](const util::TuneError& err) {
      if (!options.lenient) throw;
      report.skipped_inputs.push_back(SkippedInput{path, err.what()});
      if (options.progress) {
        options.progress(std::string("compact: skipping unreadable input: ") +
                         err.what());
      }
    };
    try {
      const StoreReader input = open ? open(path) : StoreReader(path);
      builder.add(input);  // validates the whole store before a row
      report.samples_in += input.size();
    } catch (const util::StoreOpenError& err) {
      forgive(err);
    } catch (const util::DataCorruptionError& err) {
      forgive(err);
    }
  }
  report.duplicates_dropped = builder.dedupe().duplicates;
  report.replaced = builder.dedupe().replaced;
  report.samples_out = builder.rows();
  report.quarantined = builder.quarantined();

  // Validate the image before it replaces the previous output.
  const StoreReader image(util::MappedFile(out_path, std::move(builder).finish()));
  image.ensure_scan_validated();
  util::atomic_write_file(out_path, image.bytes());
  return report;
}

}  // namespace omptune::store
