// native-runtime: real kernels through src/rt. A loop-bound (cg), a
// task-bound (health), a reduction-heavy (ep) and a memory-bound (xsbench)
// application run natively on an rt::ThreadTeam smaller than nproc, across
// a one-factor-at-a-time configuration matrix around the default
// configuration: KMP_LIBRARY x KMP_BLOCKTIME, OMP_SCHEDULE,
// KMP_FORCE_REDUCTION and KMP_BARRIER_PATTERN. Every checksum must match
// the app's serial run_reference within its deterministic_checksum()
// tolerance. The traced run adds spans per team creation and kernel, sums
// TeamStats, and afterwards probes fork-join and barrier costs directly.

#include <algorithm>
#include <cmath>
#include <map>

#include "apps/application.hpp"
#include "arch/cpu_arch.hpp"
#include "common.hpp"
#include "rt/thread_team.hpp"

namespace perfbench {

namespace {

using namespace omptune;

/// Each app runs its largest input at a native_scale that makes one run
/// take roughly 1 (cg) to 12 ms on a 2-thread team.
struct NativeApp {
  const char* name;
  double scale;
};
constexpr NativeApp kApps[] = {
    {"cg", 1.0}, {"health", 0.5}, {"ep", 0.5}, {"xsbench", 1.0}};

struct Run {
  const apps::Application* app = nullptr;
  double scale = 0.0;
  rt::RtConfig config;
};

/// The configuration matrix: the default configuration plus one variation
/// of one variable at a time.
std::vector<rt::RtConfig> config_matrix(const arch::CpuArch& cpu, int team) {
  rt::RtConfig base = rt::RtConfig::defaults_for(cpu);
  base.num_threads = team;
  std::vector<rt::RtConfig> out{base};
  for (const rt::LibraryMode library :
       {rt::LibraryMode::Throughput, rt::LibraryMode::Turnaround}) {
    for (const std::int64_t blocktime : {std::int64_t{200}, std::int64_t{0}}) {
      rt::RtConfig c = base;
      c.library = library;
      c.blocktime_ms = blocktime;
      if (!(c == base)) out.push_back(c);
    }
  }
  for (const rt::ScheduleKind schedule :
       {rt::ScheduleKind::Dynamic, rt::ScheduleKind::Guided}) {
    rt::RtConfig c = base;
    c.schedule = schedule;
    out.push_back(c);
  }
  for (const rt::ReductionMethod reduction :
       {rt::ReductionMethod::Tree, rt::ReductionMethod::Critical,
        rt::ReductionMethod::Atomic}) {
    rt::RtConfig c = base;
    c.reduction = reduction;
    out.push_back(c);
  }
  for (const rt::BarrierKind barrier :
       {rt::BarrierKind::Central, rt::BarrierKind::Tree,
        rt::BarrierKind::Dissemination, rt::BarrierKind::Hybrid}) {
    rt::RtConfig c = base;
    c.barrier = barrier;
    out.push_back(c);
  }
  return out;
}

bool checksum_ok(const apps::Application& app, double native, double reference) {
  if (app.deterministic_checksum()) return native == reference;
  return std::abs(native - reference) <= 1e-9 * std::max(1.0, std::abs(reference));
}

/// Median µs of an empty parallel region on a team under `config`.
double fork_join_us(const arch::CpuArch& cpu, const rt::RtConfig& config) {
  rt::ThreadTeam team(cpu, config);
  std::vector<double> batches;
  for (int batch = 0; batch < 20; ++batch) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < 100; ++i) team.parallel([](rt::TeamContext&) {});
    batches.push_back(seconds_since(start) * 1e6 / 100.0);
  }
  return median(batches);
}

/// Median µs per team barrier at the team's size under `barrier`.
double barrier_us(const arch::CpuArch& cpu, rt::RtConfig config,
                  rt::BarrierKind barrier) {
  config.barrier = barrier;
  rt::ThreadTeam team(cpu, config);
  constexpr int kRounds = 2000;
  std::vector<double> regions;
  for (int region = 0; region < 5; ++region) {
    double elapsed = 0.0;
    team.parallel([&](rt::TeamContext& ctx) {
      ctx.barrier();
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < kRounds; ++i) ctx.barrier();
      if (ctx.tid() == 0) elapsed = seconds_since(start);
    });
    regions.push_back(elapsed * 1e6 / kRounds);
  }
  return median(regions);
}

}  // namespace

void run_native(const Options& options, Result& result) {
  Tracer tracer(options.trace);
  const arch::CpuArch& cpu = arch::architecture(arch::ArchId::Skylake);
  const int team = static_cast<int>(std::max(1u, options.nproc / 2));

  // Set-up: the run list (seeded order) and the serial reference checksums.
  std::vector<Run> runs;
  std::map<std::string, double> reference;
  std::vector<double> setup_times;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    runs.clear();
    for (const NativeApp& spec : kApps) {
      const apps::Application& app = apps::find_application(spec.name);
      const double scale = options.mini ? spec.scale / 4 : spec.scale;
      reference[spec.name] = app.run_reference(app.input_sizes().back(), scale);
      for (const rt::RtConfig& config : config_matrix(cpu, team)) {
        runs.push_back(Run{&app, scale, config});
      }
    }
    Rng rng(mix64(options.seed ^ 0x7a71e));
    for (std::size_t j = runs.size(); j > 1; --j) std::swap(runs[j - 1], runs[rng.index(j)]);
    setup_times.push_back(seconds_since(start));
  }

  std::vector<double> walls, cpus;
  std::map<std::string, std::vector<double>> kernel_ms;
  std::vector<double> team_create_us;
  rt::TeamStats stats;
  bool corrupt = options.inject_fault;
  const Clock::time_point measure_start = Clock::now();
  while (walls.empty() || seconds_since(measure_start) < options.seconds) {
    const CpuTimes cpu_before = cpu_times();
    const Clock::time_point pass_start = Clock::now();
    for (const Run& run : runs) {
      const std::string name = run.app->name();
      Clock::time_point start = Clock::now();
      int span = tracer.begin("rt.team_create");
      rt::ThreadTeam team_obj(cpu, run.config);
      tracer.end(span);
      if (tracer.enabled()) team_create_us.push_back(seconds_since(start) * 1e6);
      start = Clock::now();
      span = tracer.begin("apps.kernel." + name);
      double checksum = run.app->run_native(team_obj, run.app->input_sizes().back(), run.scale);
      tracer.end(span);
      if (tracer.enabled()) {
        kernel_ms[name].push_back(seconds_since(start) * 1e3);
        const rt::TeamStats s = team_obj.stats();
        stats.parallel_regions += s.parallel_regions;
        stats.loop_sync_operations += s.loop_sync_operations;
        stats.barrier_sleeps += s.barrier_sleeps;
        stats.tasks.spawned += s.tasks.spawned;
        stats.tasks.steals += s.tasks.steals;
        stats.tasks.idle_sleeps += s.tasks.idle_sleeps;
        stats.contended_combines += s.contended_combines;
      }
      if (corrupt) {
        checksum += 1.0;
        corrupt = false;
      }
      result.check(checksum_ok(*run.app, checksum, reference[name]),
                   name + " checksum " + std::to_string(checksum) + " != reference " +
                       std::to_string(reference[name]) + " under " + run.config.key());
    }
    walls.push_back(seconds_since(pass_start));
    cpus.push_back(cpu_times().total() - cpu_before.total());
  }
  const double passes = static_cast<double>(walls.size());
  std::fprintf(stderr, "native-runtime: team of %d, %zu runs per pass, %zu passes\n",
               team, runs.size(), walls.size());

  if (!tracer.enabled()) {
    result.metric("setup_s", median(setup_times), "s");
    result.metric("wall_s", median(walls), "s");
    result.metric("cpu_s", median(cpus), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  result.metric("trace.wall_s", median(walls), "s");
  result.metric("trace.spans", static_cast<double>(tracer.span_count()), "count");
  result.metric("rt.team_create_us", median(team_create_us), "us");
  rt::RtConfig config = rt::RtConfig::defaults_for(cpu);
  config.num_threads = team;
  rt::RtConfig active = config;
  active.library = rt::LibraryMode::Turnaround;
  rt::RtConfig passive = config;
  passive.blocktime_ms = 0;
  result.metric("rt.fork_join_us.active", fork_join_us(cpu, active), "us");
  result.metric("rt.fork_join_us.passive", fork_join_us(cpu, passive), "us");
  const std::pair<const char*, rt::BarrierKind> barriers[] = {
      {"central", rt::BarrierKind::Central},
      {"tree", rt::BarrierKind::Tree},
      {"dissemination", rt::BarrierKind::Dissemination},
      {"hybrid", rt::BarrierKind::Hybrid},
      {"auto", rt::BarrierKind::Auto}};
  for (const auto& [name, kind] : barriers) {
    result.metric(std::string("rt.barrier_us.") + name, barrier_us(cpu, config, kind), "us");
  }
  const auto per_pass = [&](std::uint64_t n) { return static_cast<double>(n) / passes; };
  result.metric("rt.parallel_regions", per_pass(stats.parallel_regions), "count");
  result.metric("rt.loop_sync_operations", per_pass(stats.loop_sync_operations), "count");
  result.metric("rt.barrier_sleeps", per_pass(stats.barrier_sleeps), "count");
  result.metric("rt.tasks_spawned", per_pass(stats.tasks.spawned), "count");
  result.metric("rt.task_steals", per_pass(stats.tasks.steals), "count");
  result.metric("rt.idle_sleeps", per_pass(stats.tasks.idle_sleeps), "count");
  result.metric("rt.contended_combines", per_pass(stats.contended_combines), "count");
  for (const NativeApp& spec : kApps) {
    result.metric(std::string("apps.kernel_ms.") + spec.name, median(kernel_ms[spec.name]),
                  "ms");
  }
  tracer.write(options.trace_out);
}

}  // namespace perfbench
