#pragma once

// The tuner: what a downstream user adopts.
//
// Two modes:
//  1. Knowledge-based (instant): query the study's bests/influence maps
//     for the best known configuration and the per-variable influence
//     ordering for an (application, architecture) pair — the paper's
//     "recommendations" and "search-space pruning" contributions.
//  2. Search-based (measured): tune an arbitrary workload with a Runner,
//     using exhaustive, random, or influence-ordered hill-climbing search —
//     the pruned-search strategy the paper's conclusion proposes.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/influence.hpp"
#include "analysis/speedup.hpp"
#include "sim/executor.hpp"
#include "sweep/config_space.hpp"
#include "sweep/dataset.hpp"

namespace omptune::store {
class StoreReader;
}
namespace omptune::util {
class ThreadPool;
}

namespace omptune::core {

/// Knowledge-based recommendations distilled from a study: influence maps
/// and a best-configuration table per (app, arch) pair. Holds no samples.
class KnowledgeBase {
 public:
  /// Build from a dataset: the influence maps behind variable_priority()
  /// fit on its non-quarantined samples (one model per group; with a pool
  /// those fits run in lock step on its lanes, identical maps either way),
  /// and the best-config table folds best_per_setting over its in-memory
  /// .omps image, so non-finite values throw std::invalid_argument.
  explicit KnowledgeBase(const sweep::Dataset& dataset,
                         double label_threshold = 1.01,
                         const util::ThreadPool* pool = nullptr);

  /// Build from an indexed .omps store for one `arch`: the fits read that
  /// architecture's non-quarantined rows straight off the store's setting
  /// slices (no Sample is materialized), and best_known_config answers from
  /// `best_pairs`. The reader is only used during construction.
  KnowledgeBase(const store::StoreReader& reader, const std::string& arch,
                analysis::PairBests best_pairs, double label_threshold = 1.01,
                const util::ThreadPool* pool = nullptr);

  /// The same, with the best-config table of `arch`'s pairs folded from the
  /// store's per-setting bests.
  KnowledgeBase(const store::StoreReader& reader, const std::string& arch,
                double label_threshold = 1.01,
                const util::ThreadPool* pool = nullptr);

  /// Environment variables ordered by decreasing influence for the pair
  /// (falls back to the per-architecture, then global ordering when the
  /// pair was not studied). Names use the paper's spellings.
  std::vector<std::string> variable_priority(const std::string& app,
                                             const std::string& arch) const;

  /// Best known configuration for (app, arch) across the studied settings:
  /// the first setting (in row order) attaining the pair's highest
  /// per-setting best. Throws std::invalid_argument if the pair has no
  /// non-quarantined samples.
  rt::RtConfig best_known_config(const std::string& app,
                                 const std::string& arch) const;

  /// Expected speedup of best_known_config over the default.
  double best_known_speedup(const std::string& app, const std::string& arch) const;

  const analysis::InfluenceMap& pair_influence() const { return pair_influence_; }

 private:
  const analysis::SettingBest& pair_best(const std::string& app,
                                         const std::string& arch) const;

  analysis::InfluenceMap pair_influence_;
  analysis::InfluenceMap arch_influence_;
  analysis::PairBests best_pair_;
};

/// Search-based tuning over a Runner.
class Tuner {
 public:
  struct SearchResult {
    rt::RtConfig best_config;
    double best_seconds = 0;
    double default_seconds = 0;
    double speedup = 1.0;
    std::size_t evaluations = 0;
  };

  Tuner(sim::Runner& runner, const apps::Application& app,
        apps::InputSize input, const arch::CpuArch& cpu,
        std::uint64_t seed = 1);

  /// Evaluate every configuration of the space (ground truth; expensive).
  SearchResult exhaustive(const sweep::ConfigSpace& space, int num_threads);

  /// Evaluate `budget` random configurations (always includes the default).
  SearchResult random_search(const sweep::ConfigSpace& space, int num_threads,
                             std::size_t budget);

  /// One-variable-at-a-time hill climbing in the given variable order
  /// (most influential first — the pruned search of the paper's
  /// conclusion). `variable_order` uses the paper's variable spellings;
  /// unknown names are ignored, omitted variables keep their defaults.
  SearchResult hill_climb(const sweep::ConfigSpace& space, int num_threads,
                          const std::vector<std::string>& variable_order);

  /// Hill climbing repeated with randomly shuffled variable orders — the
  /// paper's suggestion for reducing the local-minimum risk when variable
  /// dependencies are unknown. Returns the best result over all restarts;
  /// evaluation counts accumulate.
  SearchResult hill_climb_restarts(const sweep::ConfigSpace& space,
                                   int num_threads, int restarts);

  /// Simulated annealing over the discrete configuration space (one of the
  /// global strategies the related work compares): random single-variable
  /// mutations, Metropolis acceptance, geometric cooling.
  SearchResult simulated_annealing(const sweep::ConfigSpace& space,
                                   int num_threads, std::size_t budget);

  /// Surrogate-guided search (the Bayesian-optimization-style strategy of
  /// the related-work comparisons, with a k-NN runtime surrogate): after a
  /// small random warm-up, each step scores a random candidate pool with an
  /// inverse-distance-weighted k-NN prediction over the observations and
  /// evaluates the most promising candidate (with epsilon exploration).
  SearchResult surrogate_search(const sweep::ConfigSpace& space,
                                int num_threads, std::size_t budget);

 private:
  double evaluate(const rt::RtConfig& config);

  sim::Runner* runner_;
  const apps::Application* app_;
  apps::InputSize input_;
  const arch::CpuArch* cpu_;
  std::uint64_t seed_;
  std::uint64_t evaluation_index_ = 0;
};

}  // namespace omptune::core
