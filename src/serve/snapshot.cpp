#include "serve/snapshot.hpp"

#include <stdexcept>
#include <utility>

#include "analysis/speedup.hpp"
#include "core/tuner.hpp"
#include "store/reader.hpp"
#include "sweep/dataset.hpp"

namespace omptune::serve {

namespace {

// Key separator for the answer tables. 0x1f (ASCII unit separator) cannot
// appear in arch/app/input names or variable spellings, so concatenated
// keys never collide.
constexpr char kSep = '\x1f';

std::string pair_key(const std::string& app, const std::string& arch) {
  return app + kSep + arch;
}

std::string setting_key(const std::string& arch, const std::string& app,
                        const std::string& input, std::int32_t threads) {
  return arch + kSep + app + kSep + input + kSep + std::to_string(threads);
}

std::string marginal_key(const std::string& arch, const std::string& variable,
                         const std::string& value) {
  return arch + kSep + variable + kSep + value;
}

/// A name no real application or architecture can have, used to walk
/// KnowledgeBase::variable_priority down its fallback ladder on purpose.
const std::string kNoSuchGroup(1, kSep);

}  // namespace

Snapshot::~Snapshot() = default;

std::shared_ptr<const Snapshot> Snapshot::load(
    const std::vector<std::string>& store_paths, std::uint64_t generation,
    const util::ThreadPool* pool) {
  if (store_paths.empty()) {
    throw std::invalid_argument("Snapshot::load: no store paths");
  }
  // shared_ptr<const ...> via a mutable build object; frozen on return.
  std::shared_ptr<Snapshot> snapshot(new Snapshot());
  snapshot->generation_ = generation;
  snapshot->shard_paths_ = store_paths;
  for (const std::string& path : store_paths) {
    snapshot->readers_.push_back(
        std::make_unique<store::StoreReader>(path, generation));
    snapshot->rows_ += snapshot->readers_.back()->size();
  }

  // Aggregate the answer tables off one reader's slices. One shard is read
  // in place; several are read through the image of their concatenated
  // rows (load-time cost only — a compacted production store is a single
  // shard), so the answers are those of one store holding every row.
  std::unique_ptr<store::StoreReader> image;
  if (snapshot->readers_.size() > 1) {
    sweep::Dataset merged;
    for (const auto& shard : snapshot->readers_) merged.append(shard->load(pool));
    image = std::make_unique<store::StoreReader>(merged);
  }
  const store::StoreReader& reader =
      image ? *image : *snapshot->readers_.front();
  const std::vector<analysis::SettingBest> bests =
      analysis::best_per_setting(reader, pool);
  std::vector<analysis::MarginalRow> per_arch =
      analysis::value_marginals(reader, true, pool);
  std::vector<analysis::MarginalRow> pooled =
      analysis::value_marginals(reader, false, pool);

  for (const analysis::SettingBest& best : bests) {
    snapshot->best_setting_[setting_key(best.arch, best.app, best.input,
                                        best.threads)] =
        BestConfig{best.best_speedup, best.best_config.key()};
  }
  for (const auto& [pair, best] : analysis::best_per_pair(bests)) {
    snapshot->best_pair_[pair_key(pair.first, pair.second)] =
        BestConfig{best.best_speedup, best.best_config.key()};
  }
  for (std::vector<analysis::MarginalRow>* rows : {&per_arch, &pooled}) {
    for (analysis::MarginalRow& row : *rows) {
      const std::string key = marginal_key(row.arch, row.variable, row.value);
      snapshot->marginals_[key] = std::move(row);
    }
  }

  // Influence-ordered variable priorities: one entry per (app, arch) pair
  // with samples, one arch-level fallback per arch (keyed with an empty
  // app), and the global fallback (both keys empty). Query-time lookups
  // walk that ladder, so a pair the study never covered still gets the
  // most useful ordering available — without a model fit on the hot path.
  for (const std::string& arch : reader.archs()) {
    // Only the priorities are read here, so the knowledge base needs no
    // best-config table; its fits read the arch's slices in place.
    const core::KnowledgeBase kb(reader, arch, {}, 1.01, pool);
    for (const std::string& app : reader.apps()) {
      snapshot->priority_[pair_key(app, arch)] = kb.variable_priority(app, arch);
    }
    snapshot->priority_[pair_key("", arch)] =
        kb.variable_priority(kNoSuchGroup, arch);
    snapshot->priority_.try_emplace(
        pair_key("", ""), kb.variable_priority(kNoSuchGroup, kNoSuchGroup));
  }

  return snapshot;
}

const BestConfig* Snapshot::best_for_pair(const std::string& app,
                                          const std::string& arch) const {
  const auto it = best_pair_.find(pair_key(app, arch));
  return it == best_pair_.end() ? nullptr : &it->second;
}

const BestConfig* Snapshot::best_for_setting(const std::string& arch,
                                             const std::string& app,
                                             const std::string& input,
                                             std::int32_t threads) const {
  const auto it = best_setting_.find(setting_key(arch, app, input, threads));
  return it == best_setting_.end() ? nullptr : &it->second;
}

const analysis::MarginalRow* Snapshot::marginal(const std::string& arch,
                                                const std::string& variable,
                                                const std::string& value) const {
  const auto it = marginals_.find(marginal_key(arch, variable, value));
  return it == marginals_.end() ? nullptr : &it->second;
}

const std::vector<std::string>* Snapshot::priority(
    const std::string& app, const std::string& arch) const {
  for (const std::string& key :
       {pair_key(app, arch), pair_key("", arch), pair_key("", "")}) {
    const auto it = priority_.find(key);
    if (it != priority_.end()) return &it->second;
  }
  return nullptr;
}

}  // namespace omptune::serve
