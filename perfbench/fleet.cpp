// fleet-collect: one architecture's slice of the Table II plan collected
// twice by the process fleets — first StudySupervisor::run with forked
// workers, then Coordinator::run with host agents publishing a
// tiered-compacted store, each with nproc/2 workers or hosts, so the parent
// and its workers leave a core free. No analysis runs. Both results must
// equal the recorded single-process dataset of that slice as sets of
// samples (row order is not compared).
//
// The slice (kFleetArch, 53,822 samples) keeps one pass near a second,
// so a run's reported wall time is the median of several passes.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "common.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/supervisor.hpp"

namespace perfbench {

namespace {

using namespace omptune;
namespace fs = std::filesystem;

struct PassOutput {
  double wall_s = 0.0;  ///< both collections, checks excluded
  double cpu_s = 0.0;
  std::string supervised_digest;
  std::string coordinated_digest;
  std::size_t supervised_samples = 0;
  std::size_t coordinated_samples = 0;
  double worker_cpu_s = 0.0;
  std::size_t tiered_merges = 0;
  std::size_t worker_crashes = 0;
  std::size_t hang_kills = 0;
  std::size_t lease_expiries = 0;
  std::size_t protocol_errors = 0;
  std::size_t respawns = 0;
};

/// Wall, total CPU and children's CPU of one timed collection.
struct Timed {
  Clock::time_point start = Clock::now();
  CpuTimes cpu = cpu_times();

  void add_to(PassOutput& out) const {
    out.wall_s += seconds_since(start);
    const CpuTimes now = cpu_times();
    out.cpu_s += now.total() - cpu.total();
    out.worker_cpu_s += now.children_s - cpu.children_s;
  }
};

PassOutput run_pass(const Options& options, const sweep::StudyPlan& plan,
                    std::uint64_t seed, int processes, Tracer& tracer) {
  PassOutput out;
  const std::string journal_dir = options.work_dir + "/supervisor";
  const std::string coordinator_dir = options.work_dir + "/coordinator";
  const std::string store_path = options.work_dir + "/fleet.omps";
  fs::remove_all(journal_dir);
  fs::remove_all(coordinator_dir);
  fs::remove(store_path);
  const sweep::RunnerFactory factory = [] {
    return std::make_unique<sim::ModelRunner>();
  };

  {
    sweep::SupervisorOptions supervisor_options;
    supervisor_options.workers = processes;
    supervisor_options.journal_dir = journal_dir;
    supervisor_options.seed = seed;
    sweep::Dataset supervised;
    const Timed timed;
    {
      ScopedSpan span(tracer, "sweep.supervisor");
      sweep::StudySupervisor supervisor(factory, supervisor_options);
      supervised = supervisor.run(plan);
      const sweep::SupervisorReport& report = supervisor.report();
      out.worker_crashes += report.worker_crashes;
      out.hang_kills += report.hang_kills;
      out.lease_expiries += report.lease_expiries;
      out.protocol_errors += report.protocol_errors;
      out.respawns += report.respawns;
    }
    timed.add_to(out);

    // Checked here, untimed, and released before the coordinator forks its
    // hosts, so the parent stays small.
    if (options.inject_fault && !supervised.samples().empty()) {
      std::vector<sweep::Sample> samples = supervised.samples();
      samples.front().speedup += 1.0;
      supervised = sweep::Dataset(std::move(samples));
    }
    out.supervised_samples = supervised.size();
    out.supervised_digest = hex64(dataset_set_digest(supervised));
  }

  {
    sweep::CoordinatorOptions coordinator_options;
    coordinator_options.hosts = processes;
    coordinator_options.work_dir = coordinator_dir;
    coordinator_options.seed = seed;
    const Timed timed;
    {
      ScopedSpan span(tracer, "sweep.coordinator");
      sweep::Coordinator coordinator(factory, coordinator_options);
      coordinator.run(plan, store_path);
      const sweep::CoordinatorReport& report = coordinator.report();
      out.tiered_merges = report.compaction.merges;
      out.worker_crashes += report.host_crashes;
      out.hang_kills += report.hang_kills;
      out.lease_expiries += report.lease_expiries;
      out.protocol_errors += report.protocol_errors;
      out.respawns += report.respawns;
    }
    timed.add_to(out);
  }

  const sweep::Dataset coordinated = store::StoreReader(store_path).load();
  out.coordinated_samples = coordinated.size();
  out.coordinated_digest = hex64(dataset_set_digest(coordinated));
  return out;
}

}  // namespace

void run_fleet(const Options& options, Result& result) {
  Tracer tracer(options.trace);
  // With nproc - 1 workers the pass time moved by up to a quarter between
  // sets of runs on a shared 4-vCPU host.
  const int processes = static_cast<int>(std::max(1u, options.nproc / 2));

  // The recorded references are the benchmark's own input: read once,
  // outside the timed set-up, which is the plan alone.
  const References references(options.references);
  sweep::StudyPlan plan;
  const std::uint64_t reference_seed = options.seed % kReferenceSeeds;
  const std::uint64_t seed = study_seed(reference_seed);
  const double setup_s =
      median_setup_s([&] { plan = fleet_plan(options.mini); }, [] {});
  fs::create_directories(options.work_dir);
  std::size_t plan_samples = 0;
  for (const sweep::ArchPlan& arch_plan : plan.arch_plans) {
    plan_samples += arch_plan.total_samples();
  }
  const std::string expected = references.get(options.mini, reference_seed, kFleetField);

  std::vector<double> walls, cpus;
  double first_pass_rss_mb = 0.0;  // later passes add allocator noise only
  PassOutput totals;
  const Clock::time_point measure_start = Clock::now();
  while (walls.empty() || seconds_since(measure_start) < options.seconds) {
    const PassOutput out = run_pass(options, plan, seed, processes, tracer);
    if (walls.empty()) first_pass_rss_mb = peak_rss_mb();
    walls.push_back(out.wall_s);
    cpus.push_back(out.cpu_s);

    result.check(out.supervised_samples == plan_samples,
                 "supervised collection holds " +
                     std::to_string(out.supervised_samples) + " of " +
                     std::to_string(plan_samples) + " samples");
    result.check(out.coordinated_samples == plan_samples,
                 "coordinated store holds " +
                     std::to_string(out.coordinated_samples) + " of " +
                     std::to_string(plan_samples) + " samples");
    result.check(out.supervised_digest == expected,
                 "supervised dataset digest " + out.supervised_digest +
                     " != reference '" + expected + "'");
    result.check(out.coordinated_digest == expected,
                 "coordinated store digest " + out.coordinated_digest +
                     " != reference '" + expected + "'");
    totals.worker_cpu_s += out.worker_cpu_s;
    totals.tiered_merges += out.tiered_merges;
    totals.worker_crashes += out.worker_crashes;
    totals.hang_kills += out.hang_kills;
    totals.lease_expiries += out.lease_expiries;
    totals.protocol_errors += out.protocol_errors;
    totals.respawns += out.respawns;
  }
  fs::remove_all(options.work_dir);
  std::fprintf(stderr, "fleet-collect: %zu samples, %d workers/hosts, %zu passes\n",
               plan_samples, processes, walls.size());

  const double passes = static_cast<double>(walls.size());
  if (!tracer.enabled()) {
    result.metric("setup_s", setup_s, "s");
    result.metric("wall_s", median(walls), "s");
    result.metric("cpu_s", median(cpus), "s");
    result.metric("peak_rss_mb", first_pass_rss_mb, "MB");
    return;
  }
  const auto per_pass = [&](std::size_t n) { return static_cast<double>(n) / passes; };
  result.metric("trace.wall_s", median(walls), "s");
  result.metric("trace.spans", static_cast<double>(tracer.span_count()), "count");
  result.metric("sweep.supervisor_s", tracer.total_s("sweep.supervisor") / passes, "s");
  result.metric("sweep.coordinator_s", tracer.total_s("sweep.coordinator") / passes, "s");
  result.metric("sweep.worker_cpu_s", totals.worker_cpu_s / passes, "s");
  result.metric("store.tiered_merges", per_pass(totals.tiered_merges), "count");
  result.metric("sweep.worker_crashes", per_pass(totals.worker_crashes), "count");
  result.metric("sweep.hang_kills", per_pass(totals.hang_kills), "count");
  result.metric("sweep.lease_expiries", per_pass(totals.lease_expiries), "count");
  result.metric("sweep.protocol_errors", per_pass(totals.protocol_errors), "count");
  result.metric("sweep.respawns", per_pass(totals.respawns), "count");
  tracer.write(options.trace_out);
}

}  // namespace perfbench
