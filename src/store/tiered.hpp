#pragma once

// Tiered (LSM-style) store compaction: merge many small per-shard .omps
// stores into one large store through levels of bounded fan-in, under the
// same Ok > Retried > Quarantined dedupe rule as flat compaction.
//
// Why tiers instead of loading everything at once: a coordinator-scale
// corpus arrives as hundreds of shard stores, and a single flat merge would
// hold every sample in memory simultaneously. Each group's members stream
// one at a time through a store::StoreBuilder, row by row from their
// columns, so a merge holds the group's rows in column form and no Sample
// at all. The result is PROVABLY identical to the
// flat merge: the dedupe rule keeps the
// best-status occurrence at the identity's first-appearance position, which
// is associative under consecutive grouping — so tier structure (which
// depends only on the input count) never leaks into the output bytes.
//
// Crash safety: every intermediate is written atomically into a scratch
// directory under a content-derived name (hash of the group's input bytes),
// and the final store is published with rename + parent-dir fsync. A
// compactor killed at ANY point either left the previous output intact or
// the new one — never a torn file — and a re-run reuses whatever valid
// intermediates survived, converging on a byte-identical result.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace omptune::store {

struct TieredOptions {
  /// Stores merged per group per level. >= 2.
  std::size_t fan_in = 8;
  /// Skip (with a warning) inputs that fail store validation instead of
  /// aborting the compaction; skipped inputs are tallied in the report.
  bool lenient = false;
  /// Scratch directory for intermediates; empty = "<out_path>.tiers".
  /// Created on demand, removed after successful publish unless
  /// keep_scratch.
  std::string scratch_dir;
  /// Leave intermediates behind after publish (crash-resume tests).
  bool keep_scratch = false;
  /// Receives one progress/warning line per event. Null = silent.
  std::function<void(const std::string&)> progress;
};

struct TieredReport {
  std::size_t inputs = 0;               ///< input stores offered
  std::size_t skipped_inputs = 0;       ///< inputs dropped under lenient
  std::size_t tiers = 0;                ///< merge levels executed
  std::size_t merges = 0;               ///< group merges executed (incl. reused)
  std::size_t reused_intermediates = 0; ///< valid intermediates adopted as-is
  std::size_t samples_in = 0;           ///< rows read from the input stores
  std::size_t samples_out = 0;          ///< rows in the published store
  std::size_t duplicates_dropped = 0;   ///< rows dropped as duplicate identities
  std::size_t replaced = 0;             ///< kept rows upgraded by a better status
  std::size_t quarantined = 0;          ///< quarantined rows in the output
  /// Scratch files from previous (crashed) runs whose content hash no
  /// longer matches any group this run — garbage-collected before publish
  /// so repeated crash/retry cycles cannot accumulate dead intermediates.
  std::size_t stale_intermediates_removed = 0;
};

/// Merge the .omps stores at `inputs` (in order) into one store at
/// `out_path`. Equivalent to loading all inputs in order, deduping by
/// status preference and writing the result — but executed in tiers of
/// `fan_in` with crash-safe intermediates and an atomic final publish.
/// Throws std::invalid_argument on empty inputs or fan_in < 2;
/// util::DataCorruptionError (naming file and offset) when an input or a
/// stale intermediate's replacement fails validation in strict mode.
TieredReport tiered_compact(const std::vector<std::string>& inputs,
                            const std::string& out_path,
                            const TieredOptions& options = {});

}  // namespace omptune::store
