// table2-pipeline: the paper's reproduction path in one process.
//
//   1. journaled SweepHarness::run_study over the Table II plan;
//   2. StudyJournal::compact to an .omps store;
//   3. Study::analyze_store on a pool of nproc lanes;
//   4. one KnowledgeBase per architecture, best-known configuration and
//      variable priority for every studied (app, arch) pair, and one
//      recommend_for_app per application (its result covers every arch).
//
// The traced run swaps the ModelRunner for a forwarding runner that counts
// predictions and drives stage 3 through the public calls analyze_store is
// made of, so each layer gets its own span; both runs must produce the same
// artefact digests.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "analysis/influence.hpp"
#include "analysis/recommend.hpp"
#include "analysis/speedup.hpp"
#include "common.hpp"
#include "core/study.hpp"
#include "core/tuner.hpp"
#include "sim/executor.hpp"
#include "store/compact.hpp"
#include "store/reader.hpp"
#include "sweep/journal.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace omptune;
namespace fs = std::filesystem;

constexpr std::size_t kTableIISamples = 243759;

/// Forwarding runner owned by the benchmark: counts the model predictions
/// and the time spent inside ModelRunner::run.
class CountingRunner final : public sim::Runner {
 public:
  double run(const apps::Application& app, const apps::InputSize& input,
             const arch::CpuArch& cpu, const rt::RtConfig& config,
             std::uint64_t batch_seed, int repetition,
             std::uint64_t sample_index) override {
    const Clock::time_point start = Clock::now();
    const double value = inner_.run(app, input, cpu, config, batch_seed,
                                    repetition, sample_index);
    seconds_ += seconds_since(start);
    ++calls_;
    return value;
  }

  std::uint64_t calls() const { return calls_; }
  double seconds() const { return seconds_; }

 private:
  sim::ModelRunner inner_;
  std::uint64_t calls_ = 0;
  double seconds_ = 0.0;
};

/// What one pass produced, reduced to the values the checks compare.
struct PassOutput {
  double wall_s = 0.0;  ///< the four stages, checks excluded
  double cpu_s = 0.0;
  std::size_t collected = 0;
  std::map<std::string, std::string> digests;  ///< field -> hex digest
  std::size_t influence_groups = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t store_bytes = 0;
  std::size_t compacted_rows = 0;
};

std::string influence_order_digest(const analysis::InfluenceMap& map) {
  Digest d;
  for (const std::string& name : map.feature_names) d.add(name);
  for (const analysis::InfluenceRow& row : map.rows) {
    std::vector<std::size_t> order(row.influence.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return row.influence[a] > row.influence[b];
    });
    d.add(row.group);
    for (const std::size_t index : order) d.add(static_cast<std::uint64_t>(index));
  }
  return hex64(d.value());
}

/// Digests of the checked artefacts. Influence values are deliberately not
/// hashed, only each row's feature ordering, so a different solver that
/// ranks the variables the same way still passes.
void digest_artefacts(const core::StudyResult& result, PassOutput& out) {
  out.digests["dataset"] = hex64(dataset_set_digest(result.dataset));
  out.digests[kFleetField] = hex64(dataset_set_digest(result.dataset, kFleetArch));
  Digest upshot, by_arch, by_app;
  for (const auto& u : result.upshot) {
    upshot.add(u.arch).add(u.min_best).add(u.median_best).add(u.max_best);
  }
  for (const auto& r : result.ranges_by_arch) {
    by_arch.add(r.app).add(r.arch).add(r.lo).add(r.hi);
  }
  for (const auto& r : result.ranges_by_app) by_app.add(r.app).add(r.lo).add(r.hi);
  out.digests["upshot"] = hex64(upshot.value());
  out.digests["table5"] = hex64(by_arch.value());
  out.digests["table6"] = hex64(by_app.value());
  out.digests["order.per_app"] = influence_order_digest(result.per_app_influence);
  out.digests["order.per_arch"] = influence_order_digest(result.per_arch_influence);
  out.digests["order.per_arch_app"] =
      influence_order_digest(result.per_arch_app_influence);
  out.influence_groups = result.per_app_influence.rows.size() +
                         result.per_arch_influence.rows.size() +
                         result.per_arch_app_influence.rows.size();
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Stage 3 through the public calls Study::analyze_store is made of, with
/// a span around each layer (traced run only).
core::StudyResult analyze_traced(const store::StoreReader& reader,
                                 const util::ThreadPool& pool, Tracer& tracer) {
  core::StudyResult result;
  {
    ScopedSpan span(tracer, "analysis.speedup");
    const std::vector<analysis::SettingBest> bests =
        analysis::best_per_setting(reader, &pool);
    result.upshot = analysis::upshot_by_arch(bests);
    result.ranges_by_arch = analysis::speedup_ranges_by_arch(bests);
    result.ranges_by_app = analysis::speedup_ranges_by_app(bests);
  }
  {
    ScopedSpan span(tracer, "store.load");
    result.dataset = reader.load(&pool);
  }
  sweep::Dataset clean_copy;
  const sweep::Dataset* analysed = &result.dataset;
  if (result.dataset.quarantined_count() > 0) {
    clean_copy = result.dataset.ok_samples();
    analysed = &clean_copy;
  }
  const double threshold = core::StudyOptions{}.label_threshold;
  {
    ScopedSpan span(tracer, "analysis.influence");
    result.per_app_influence = analysis::influence_map(
        *analysed, analysis::Grouping::PerApplication, threshold, {}, &pool);
    result.per_arch_influence = analysis::influence_map(
        *analysed, analysis::Grouping::PerArchitecture, threshold, {}, &pool);
    result.per_arch_app_influence = analysis::influence_map(
        *analysed, analysis::Grouping::PerArchApplication, threshold, {}, &pool);
  }
  {
    ScopedSpan span(tracer, "analysis.speedup");
    result.worst_trends = analysis::worst_trends(*analysed);
  }
  return result;
}

/// Stage 4: best known configuration per studied pair, plus the
/// recommendations; returns the digest of every pair's best known config.
std::string recommend_all(const store::StoreReader& reader,
                          const util::ThreadPool& pool, Tracer& tracer,
                          bool corrupt) {
  std::map<std::string, std::set<std::string>> apps_by_arch;
  for (const store::SettingEntry& entry : reader.settings()) {
    apps_by_arch[entry.arch].insert(entry.app);
  }
  std::vector<std::string> lines;
  for (const auto& [arch, apps] : apps_by_arch) {
    std::unique_ptr<core::KnowledgeBase> kb;
    {
      ScopedSpan span(tracer, "core.knowledge_base");
      kb = std::make_unique<core::KnowledgeBase>(reader, arch, 1.01, &pool);
    }
    ScopedSpan span(tracer, "core.recommend");
    for (const std::string& app : apps) {
      std::string line = arch + "/" + app + "=" +
                         kb->best_known_config(app, arch).key() + "@" +
                         std::to_string(kb->best_known_speedup(app, arch));
      for (const std::string& variable : kb->variable_priority(app, arch)) {
        line += " " + variable;
      }
      lines.push_back(std::move(line));
    }
  }
  {
    ScopedSpan span(tracer, "core.recommend");
    for (const std::string& app : reader.apps()) {
      analysis::recommend_for_app(reader, app, 0.01, 1.3, &pool);
    }
  }
  if (corrupt && !lines.empty()) lines.front() += "!";
  std::sort(lines.begin(), lines.end());
  Digest d;
  for (const std::string& line : lines) d.add(line);
  return hex64(d.value());
}

PassOutput run_pass(const Options& options, const sweep::StudyPlan& plan,
                    std::uint64_t seed, const util::ThreadPool& pool,
                    Tracer& tracer, CountingRunner& counting) {
  PassOutput out;
  const std::string journal_dir = options.work_dir + "/journal";
  const std::string store_path = options.work_dir + "/study.omps";
  fs::remove_all(journal_dir);
  fs::remove(store_path);

  const CpuTimes cpu_before = cpu_times();
  const Clock::time_point start = Clock::now();
  sim::ModelRunner model;
  sim::Runner& runner = tracer.enabled() ? static_cast<sim::Runner&>(counting)
                                         : static_cast<sim::Runner&>(model);
  {
    sweep::SweepHarness harness(runner, core::StudyOptions{}.repetitions, seed);
    sweep::StudyRunOptions run_options;
    run_options.journal_dir = journal_dir;
    run_options.resilient = true;
    ScopedSpan span(tracer, "sweep.collect");
    out.collected = harness.run_study(plan, run_options).size();
  }
  if (tracer.enabled()) out.journal_bytes = directory_bytes(journal_dir);

  {
    ScopedSpan span(tracer, "store.compact");
    out.compacted_rows = sweep::StudyJournal(journal_dir).compact(store_path).samples_out;
  }
  if (tracer.enabled()) out.store_bytes = fs::file_size(store_path);

  std::unique_ptr<store::StoreReader> reader;
  {
    ScopedSpan span(tracer, "store.open");
    reader = std::make_unique<store::StoreReader>(store_path);
  }
  core::StudyResult result;
  if (tracer.enabled()) {
    result = analyze_traced(*reader, pool, tracer);
  } else {
    result = core::Study(model).analyze_store(*reader, &pool);
  }
  const std::string best_known =
      recommend_all(*reader, pool, tracer, options.inject_fault);
  reader.reset();
  out.wall_s = seconds_since(start);
  out.cpu_s = cpu_times().total() - cpu_before.total();
  digest_artefacts(result, out);
  out.digests["best_known"] = best_known;
  return out;
}

}  // namespace

void run_table2(const Options& options, Result& result) {
  Tracer tracer(options.trace);

  // Set-up: the plan and the analysis pool. Cheap, so it is repeated and
  // the median reported. The recorded references are the benchmark's own
  // input and are read once, outside the timed set-up.
  const References references(options.references);
  sweep::StudyPlan plan;
  std::unique_ptr<util::ThreadPool> pool;
  const std::uint64_t reference_seed = options.seed % kReferenceSeeds;
  const std::uint64_t seed = study_seed(reference_seed);
  const double setup_s = median_setup_s(
      [&] {
        plan = study_plan(options.mini);
        pool = std::make_unique<util::ThreadPool>(options.nproc);
      },
      [&] { pool.reset(); });
  fs::create_directories(options.work_dir);
  std::size_t plan_samples = 0;
  for (const sweep::ArchPlan& arch_plan : plan.arch_plans) {
    plan_samples += arch_plan.total_samples();
  }

  CountingRunner counting;
  std::vector<double> walls, cpus;
  std::size_t influence_groups = 0, compacted_rows = 0;
  std::uint64_t journal_bytes = 0, store_bytes = 0;
  double first_pass_rss_mb = 0.0;  // a run holds one or two passes
  const Clock::time_point measure_start = Clock::now();
  while (walls.empty() || seconds_since(measure_start) < options.seconds) {
    const PassOutput out = run_pass(options, plan, seed, *pool, tracer, counting);
    if (walls.empty()) first_pass_rss_mb = peak_rss_mb();
    walls.push_back(out.wall_s);
    cpus.push_back(out.cpu_s);
    influence_groups += out.influence_groups;
    journal_bytes += out.journal_bytes;
    store_bytes += out.store_bytes;
    compacted_rows += out.compacted_rows;

    if (options.record) {
      for (const auto& [field, value] : out.digests) {
        print_reference(options.mini, reference_seed, field, value);
      }
      break;
    }
    if (!options.mini) {
      result.check(plan_samples == kTableIISamples,
                   "plan holds " + std::to_string(plan_samples) +
                       " samples, Table II has 243759");
    }
    result.check(out.collected == plan_samples,
                 "collected " + std::to_string(out.collected) + " of " +
                     std::to_string(plan_samples) + " samples");
    for (const auto& [field, value] : out.digests) {
      const std::string expected = references.get(options.mini, reference_seed, field);
      result.check(value == expected, "table2 " + field + " digest " + value +
                                          " != reference '" + expected + "'");
    }
  }
  fs::remove_all(options.work_dir);

  const double passes = static_cast<double>(walls.size());
  if (!tracer.enabled()) {
    result.metric("setup_s", setup_s, "s");
    result.metric("wall_s", median(walls), "s");
    result.metric("cpu_s", median(cpus), "s");
    result.metric("peak_rss_mb", first_pass_rss_mb, "MB");
    return;
  }
  const double predict_s = counting.seconds() / passes;
  const double collect_s = tracer.total_s("sweep.collect") / passes;
  const double compact_s = tracer.total_s("store.compact") / passes;
  const double influence_s = tracer.total_s("analysis.influence") / passes;
  const double groups = static_cast<double>(influence_groups) / passes;
  result.metric("trace.wall_s", median(walls), "s");
  result.metric("trace.spans", static_cast<double>(tracer.span_count()), "count");
  result.metric("sim.predictions", static_cast<double>(counting.calls()) / passes, "count");
  result.metric("sim.predict_s", predict_s, "s");
  result.metric("sweep.collect_s", collect_s, "s");
  result.metric("sweep.self_s", collect_s - predict_s, "s");
  result.metric("sweep.journal_bytes", static_cast<double>(journal_bytes) / passes, "bytes");
  result.metric("store.compact_s", compact_s, "s");
  result.metric("store.compact_rows_per_s",
                static_cast<double>(compacted_rows) / passes / compact_s, "1/s");
  result.metric("store.bytes", static_cast<double>(store_bytes) / passes, "bytes");
  result.metric("store.open_ms", tracer.total_s("store.open") / passes * 1e3, "ms");
  result.metric("store.load_s", tracer.total_s("store.load") / passes, "s");
  result.metric("analysis.speedup_s", tracer.total_s("analysis.speedup") / passes, "s");
  result.metric("analysis.influence_s", influence_s, "s");
  result.metric("ml.groups_fitted", groups, "count");
  result.metric("ml.fit_ms_per_group", influence_s * 1e3 / groups, "ms");
  result.metric("core.knowledge_base_ms",
                tracer.total_s("core.knowledge_base") / passes * 1e3, "ms");
  result.metric("core.recommend_ms", tracer.total_s("core.recommend") / passes * 1e3, "ms");
  tracer.write(options.trace_out);
}

}  // namespace perfbench
