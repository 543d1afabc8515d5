#include "store/tiered.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "store/reader.hpp"
#include "store/writer.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace omptune::store {

namespace {

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

/// Content hash of one merge group: combined hash of every member's raw
/// bytes. Names the group's intermediate, so a surviving intermediate is
/// reused iff it was produced from byte-identical inputs — the property
/// that makes mid-compaction crash resume converge on identical output.
std::uint64_t group_content_hash(const std::vector<std::string>& members) {
  std::uint64_t h = 0x7143ed00c0de5ULL;
  for (const std::string& path : members) {
    const auto bytes = util::read_file(path);
    // Missing members are caught later by the load path; hash them as empty
    // so the reuse check stays deterministic.
    h = util::hash_combine(h, util::stable_hash(bytes ? *bytes : ""));
  }
  return h;
}

void remove_scratch(const std::string& dir) {
  for (const std::string& name : util::list_files(dir)) {
    util::remove_file(util::path_join(dir, name));
  }
  ::rmdir(dir.c_str());
}

}  // namespace

TieredReport tiered_compact(const std::vector<std::string>& inputs,
                            const std::string& out_path,
                            const TieredOptions& options) {
  if (inputs.empty()) {
    throw std::invalid_argument("tiered_compact: no input stores");
  }
  if (options.fan_in < 2) {
    throw std::invalid_argument("tiered_compact: fan_in must be >= 2");
  }
  const std::string scratch =
      options.scratch_dir.empty() ? out_path + ".tiers" : options.scratch_dir;
  util::create_directories(scratch);
  util::remove_stale_temp_files(scratch);

  TieredReport report;
  report.inputs = inputs.size();

  std::vector<std::string> current = inputs;
  // Every intermediate this run touches (written or reused). Anything else
  // in scratch is a dropping of a previous crashed run whose inputs have
  // since changed — stale by definition, swept before publish.
  std::set<std::string> live_intermediates;
  std::size_t level = 0;
  // Always at least one pass, even for a single input: the output must be a
  // normalized (deduped, freshly serialized) store regardless of input count.
  do {
    ++report.tiers;
    std::vector<std::string> next;
    for (std::size_t start = 0; start < current.size();
         start += options.fan_in) {
      const std::size_t end = std::min(start + options.fan_in, current.size());
      const std::vector<std::string> group(current.begin() + start,
                                           current.begin() + end);
      const std::string inter_path = util::path_join(
          scratch, "t" + std::to_string(level) + "-" +
                       std::to_string(start / options.fan_in) + "-" +
                       hex16(group_content_hash(group)) + ".omps");
      ++report.merges;
      live_intermediates.insert(inter_path);
      if (util::file_exists(inter_path)) {
        // A content-named intermediate from a previous (crashed) run: adopt
        // it iff it still validates end to end.
        try {
          StoreReader(inter_path).ensure_scan_validated();
          ++report.reused_intermediates;
          if (options.progress) {
            options.progress("tiered: reusing intermediate " + inter_path);
          }
          next.push_back(inter_path);
          continue;
        } catch (const util::DataCorruptionError&) {
          util::remove_file(inter_path);  // torn scratch file; rebuild
        }
      }
      // Members stream through one builder, row by row from their columns:
      // no Sample is materialized.
      StoreBuilder builder(StoreBuilder::Duplicates::Resolve);
      for (const std::string& member : group) {
        // Only original inputs may be forgiven; a bad intermediate at a
        // deeper level is our own scratch corrupted underneath us.
        const auto forgive = [&](const util::TuneError& err) {
          if (level != 0 || !options.lenient) throw;
          report.skipped_inputs.push_back(SkippedInput{member, err.what()});
          if (options.progress) {
            options.progress(std::string("tiered: skipping unreadable input: ") +
                             err.what());
          }
        };
        try {
          const StoreReader store(member);
          builder.add(store);  // validates the whole store before a row
          if (level == 0) report.samples_in += store.size();
        } catch (const util::StoreOpenError& err) {
          forgive(err);
        } catch (const util::DataCorruptionError& err) {
          forgive(err);
        }
      }
      report.duplicates_dropped += builder.dedupe().duplicates;
      report.replaced += builder.dedupe().replaced;
      util::atomic_write_file(inter_path, std::move(builder).finish());
      next.push_back(inter_path);
    }
    current = std::move(next);
    ++level;
  } while (current.size() > 1);

  // Stale-intermediate sweep: content-named files from previous crashed
  // runs that no group of THIS run produced would otherwise survive every
  // keep_scratch resume cycle.
  for (const std::string& name : util::list_files(scratch)) {
    const std::string path = util::path_join(scratch, name);
    if (live_intermediates.count(path) != 0) continue;
    if (util::remove_file(path)) {
      ++report.stale_intermediates_removed;
      if (options.progress) {
        options.progress("tiered: removed stale intermediate " + path);
      }
    }
  }

  // Validate the final store before publishing it over the previous output,
  // and pull the output tallies from what will actually be published.
  const std::string& final_path = current.front();
  {
    const StoreReader published(final_path);
    published.ensure_scan_validated();
    report.samples_out = published.size();
    for (std::size_t s = 0; s < published.setting_count(); ++s) {
      const SettingSlice slice = published.setting_slice(s);
      for (std::size_t i = 0; i < slice.rows; ++i) {
        if (slice.quarantined(i)) ++report.quarantined;
      }
    }
  }
  // Atomic publish: rename + parent-dir fsync. A crash before this line
  // leaves the previous out_path intact; after it, the new store is durable.
  util::rename_file(final_path, out_path);
  if (!options.keep_scratch) remove_scratch(scratch);
  if (options.progress) {
    options.progress("tiered: published " + out_path + " (" +
                     std::to_string(report.samples_out) + " samples, " +
                     std::to_string(report.tiers) + " tiers)");
  }
  return report;
}

}  // namespace omptune::store
