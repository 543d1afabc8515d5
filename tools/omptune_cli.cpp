// omptune — command-line front end for the study and the tuner.
//
//   omptune list                       applications and architectures
//   omptune study [N] [out]           run the study (N configs/setting;
//                                      0 or omitted = full Table II scale;
//                                      out: .csv or binary .omps store)
//     --journal=<dir>                  write-ahead journal per setting
//     --resume                         replay completed journal entries
//     --max-retries=<N>                retries per failed sample (default 2)
//     --sample-timeout-ms=<T>          per-sample watchdog deadline
//     --workers=<N>                    process-isolated collection: N forked
//                                      workers under the study supervisor
//     --heartbeat-timeout-ms=<T>       kill workers silent for T ms (hung)
//     --max-setting-crashes=<N>        crashes before a setting quarantines
//     --chaos=<spec>                   deterministic fault injection in the
//                                      workers, e.g. seed=7,kill=0.02
//   omptune coordinate [N] <out.omps> multi-host collection: shard manifests
//                                      leased to forked host agents, merged
//                                      by tiered compaction (N configs per
//                                      setting; 0 or omitted = full scale)
//     --hosts=<N>                      host agent processes (default 2)
//     --shards=<N>                     shard manifests (default 2*hosts);
//                                      byte-identical runs must agree on it
//     --dir=<dir>                      coordinator state + shard stores
//     --resume                         resume from --dir's write-ahead state
//     --lease-ttl-ms=<T>               wall-clock budget per leased shard
//     --heartbeat-timeout-ms=<T>       kill agents silent for T ms
//     --backoff-base-ms=<T> --backoff-max-ms=<T>
//                                      re-lease backoff (decorrelated jitter)
//     --max-shard-attempts=<N>         strikes before a shard quarantines
//     --chaos=<spec>                   host-level fault injection, e.g.
//                                      seed=7,kill=0.05,truncate=0.02
//     --lenient                        skip unreadable shard stores
//   omptune analyze <dataset>         re-derive every artefact from a
//                                      dataset (.csv or .omps store)
//   omptune compact <journal> <out.omps>
//                                      fold a journal's per-setting
//                                      entries into one indexed store
//   omptune query <store.omps> <app> <arch>
//                                      indexed store query + knowledge-based
//                                      recommendation, no CSV parsing
//   omptune query --remote=<socket> <app> <arch>
//                                      the same recommendation answered by a
//                                      running `omptune serve` instance over
//                                      its unix socket (microseconds, no
//                                      store open per query)
//     --retries=<N>                    attempts per call through the
//                                      resilient client (default 6; 1 =
//                                      fail on the first typed shed)
//     --retry-timeout-ms=<T>           per-socket recv/send budget so a
//                                      stalled server becomes a retry
//   omptune serve <store.omps>... --socket=<path>
//                                      long-running recommendation server
//                                      over the given store shards
//     --tcp-port=<N>                   also listen on 127.0.0.1:N (0 =
//                                      ephemeral)
//     --cache=<N>                      reply-cache entries (default 4096)
//     --max-pending=<N>                admission bound per poll round
//     --request-deadline-ms=<T>        per-request budget; a query past it
//                                      gets a typed DeadlineExceeded reply
//     --stall-timeout-ms=<T>           evict connections holding a partial
//                                      frame without progress (slowloris)
//     --no-admin                       refuse wire Swap/Shutdown messages
//     --supervised                     run under a serve::Keeper: the server
//                                      forks as a child, heartbeats over a
//                                      pipe, and is restarted with backoff
//                                      on crash or wedge, booting from the
//                                      last hot-swapped shard set
//     --hang-timeout-ms=<T>            heartbeat silence that counts as a
//                                      wedge (supervised only)
//     --max-restarts=<N>               give up after N restarts without
//                                      stability (default: never)
//     --incident-log=<path>            append-only crash/hang log, written
//                                      before each restart
//     --pid-file=<path>                current child pid, atomically
//                                      rewritten per incarnation
//   omptune serve-ctl <socket> stats | swap <store.omps>... | shutdown
//                                      admin client for a running server
//   omptune recommend <app> <arch>    variable priority + best known config
//     --store=<file.omps>              answer from a study store instead of
//                                      re-running a quick study
//   omptune tune <app> <arch> [strategy] [budget]
//                                      strategy: hill|random|anneal|exhaustive
//   omptune violin <app>              ASCII violins per (arch, setting)

#include <poll.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "analysis/recommend.hpp"
#include "analysis/speedup.hpp"
#include "core/study.hpp"
#include "serve/client.hpp"
#include "serve/keeper.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"
#include "core/thread_advisor.hpp"
#include "rt/calibration.hpp"
#include "core/tuner.hpp"
#include "sim/energy_model.hpp"
#include "sim/fault_runner.hpp"
#include "stats/descriptive.hpp"
#include "stats/kde.hpp"
#include "store/compact.hpp"
#include "store/reader.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/journal.hpp"
#include "util/env.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace omptune;

/// Lanes for the analytics thread pool: --analysis-threads=N (parsed and
/// stripped in main, valid for every command), else OMPTUNE_ANALYSIS_THREADS,
/// else hardware_concurrency. 0 = let ThreadPool resolve the default.
unsigned g_analysis_threads = 0;

util::ThreadPool make_analysis_pool() {
  return util::ThreadPool(g_analysis_threads);
}

int usage() {
  std::printf(
      "usage: omptune <command> [args]\n"
      "  list                              applications and architectures\n"
      "  study [configs] [out]             run the sweep (0 = full scale;\n"
      "        [--journal=<dir>] [--resume] out: .csv or binary .omps store)\n"
      "        [--max-retries=N] [--sample-timeout-ms=T]\n"
      "        [--workers=N] [--heartbeat-timeout-ms=T]\n"
      "        [--max-setting-crashes=N] [--chaos=<spec>]\n"
      "                                    checkpointed, resumable, fault-\n"
      "                                    tolerant collection; --workers\n"
      "                                    isolates faults in forked processes\n"
      "  coordinate [configs] <out.omps>   multi-host collection: shards\n"
      "        [--hosts=N] [--shards=N]    leased to forked host agents,\n"
      "        [--dir=<dir>] [--resume]    merged by tiered compaction into\n"
      "        [--lease-ttl-ms=T]          one byte-stable .omps store\n"
      "        [--heartbeat-timeout-ms=T]\n"
      "        [--backoff-base-ms=T] [--backoff-max-ms=T]\n"
      "        [--max-shard-attempts=N] [--chaos=<spec>] [--lenient]\n"
      "  analyze <dataset>                 derive artefacts from a dataset\n"
      "                                    (.csv or .omps store)\n"
      "  compact <journal> <out.omps>      fold per-setting journal entries\n"
      "                                    into one indexed binary store\n"
      "  query <store.omps> <app> <arch>   indexed store query + knowledge-\n"
      "                                    based recommendation\n"
      "  query --remote=<socket> <app> <arch>\n"
      "        [--retries=N]             the same, answered by a running\n"
      "        [--retry-timeout-ms=T]    `omptune serve` over its socket via\n"
      "                                    the retrying client (bounded\n"
      "                                    backoff, reconnect-and-replay)\n"
      "  serve <store.omps>... --socket=<path>\n"
      "        [--tcp-port=N] [--cache=N] long-running recommendation server\n"
      "        [--max-pending=N]          with batching, reply cache and\n"
      "        [--request-deadline-ms=T]  store hot-swap (SIGINT drains);\n"
      "        [--stall-timeout-ms=T]     typed DeadlineExceeded on blown\n"
      "        [--no-admin]               budgets, slowloris eviction\n"
      "        [--supervised]             fork under a Keeper: crash/wedge\n"
      "        [--hang-timeout-ms=T]      detection over a heartbeat pipe,\n"
      "        [--max-restarts=N]         backoff restarts onto the same\n"
      "        [--incident-log=<path>]    socket from the last-known-good\n"
      "        [--pid-file=<path>]        shard set, write-ahead incidents\n"
      "  serve-ctl <socket> stats | swap <store.omps>... | shutdown\n"
      "                                    admin client for a running server\n"
      "  recommend <app> <arch> [--store=<file.omps>]\n"
      "                                    knowledge-based recommendation\n"
      "  tune <app> <arch> [strategy] [budget]\n"
      "                                    strategy: hill|random|anneal|exhaustive\n"
      "  violin <app>                      distribution per (arch, setting)\n"
      "  model <app> <arch> [config...]    runtime/energy breakdown; config\n"
      "                                    tokens like KMP_LIBRARY=turnaround;\n"
      "                                    --calibration=FILE uses a measured\n"
      "                                    primitive-cost table (see\n"
      "                                    bench/micro_primitives)\n"
      "  threads <app> <arch>              thread-count scaling + advice\n"
      "global flags:\n"
      "  --analysis-threads=N              worker threads for the analytics\n"
      "                                    engine (default: the\n"
      "                                    OMPTUNE_ANALYSIS_THREADS variable,\n"
      "                                    then all hardware threads); results\n"
      "                                    are identical at any thread count\n");
  return 2;
}

sweep::Dataset quick_study(std::size_t configs_per_setting) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner);
  sweep::StudyPlan plan = sweep::StudyPlan::paper_plan();
  if (configs_per_setting > 0) {
    for (auto& arch_plan : plan.arch_plans) {
      for (auto& count : arch_plan.configs_per_setting) {
        count = configs_per_setting;
      }
    }
  }
  return harness.run_study(plan);
}

void print_artifacts(const core::StudyResult& result) {
  std::printf("\nper-architecture upshot (Section V.1):\n");
  for (const auto& u : result.upshot) {
    std::printf("  %-8s min %.3f  median %.3f  max %.3f\n", u.arch.c_str(),
                u.min_best, u.median_best, u.max_best);
  }

  util::TextTable ranges("\nspeedup ranges per application (Table VI):",
                         {"app", "range"});
  for (const auto& r : result.ranges_by_app) {
    ranges.add_row({r.app, util::format_double(r.lo, 3) + " - " +
                               util::format_double(r.hi, 3)});
  }
  std::printf("%s", ranges.render().c_str());

  std::printf("\nfeature influence per architecture (Fig 3):\n");
  util::HeatMapRenderer heat("", result.per_arch_influence.feature_names);
  for (const auto& row : result.per_arch_influence.rows) {
    heat.add_row(row.group, row.influence);
  }
  std::printf("%s", heat.render().c_str());

  std::printf("\nworst-performance trends (Section V.4):\n");
  for (const auto& t : result.worst_trends) {
    std::printf("  lift %5.2f  %s\n", t.lift, t.condition.c_str());
  }
}

int cmd_list() {
  util::TextTable apps_table("applications:", {"name", "suite", "parallelism",
                                               "sweeps", "inputs"});
  for (const apps::Application* app : apps::registry()) {
    std::string inputs;
    for (const auto& input : app->input_sizes()) {
      if (!inputs.empty()) inputs += ",";
      inputs += input.name;
    }
    apps_table.add_row({app->name(), app->suite(), to_string(app->kind()),
                        app->sweep_mode() == apps::SweepMode::VaryInputSize
                            ? "input sizes"
                            : "thread counts",
                        inputs});
  }
  std::printf("%s\n", apps_table.render().c_str());

  util::TextTable archs("architectures:",
                        {"name", "description", "cores", "numa", "cacheline"});
  for (const auto& cpu : arch::all_architectures()) {
    archs.add_row({cpu.name, cpu.description, std::to_string(cpu.cores),
                   std::to_string(cpu.numa_nodes),
                   std::to_string(cpu.cacheline_bytes)});
  }
  std::printf("%s", archs.render().c_str());
  return 0;
}

/// Parse the numeric value of a `--flag=N` argument; exits with a message
/// naming the flag on anything that is not a plain non-negative integer.
long long flag_value(const std::string& arg, std::size_t prefix_len) {
  const std::string value = arg.substr(prefix_len);
  const std::string flag = arg.substr(0, prefix_len - 1);
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
    std::fprintf(stderr, "omptune: %s expects a non-negative integer, got '%s'\n",
                 flag.c_str(), value.c_str());
    std::exit(2);
  }
  return std::stoll(value);
}

int cmd_study(int argc, char** argv) {
  // Flags may appear anywhere after the command; the remaining positionals
  // are [configs] [out.csv] as before.
  sweep::StudyRunOptions options;
  int workers = 0;
  long long heartbeat_timeout_ms = -1;
  int max_setting_crashes = 0;
  sim::ChaosSpec chaos;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::starts_with(arg, "--journal=")) {
      options.journal_dir = arg.substr(10);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (util::starts_with(arg, "--max-retries=")) {
      options.resilient = true;
      options.resilience.max_retries = static_cast<int>(flag_value(arg, 14));
    } else if (util::starts_with(arg, "--sample-timeout-ms=")) {
      options.resilient = true;
      options.resilience.sample_timeout_ms = flag_value(arg, 20);
    } else if (util::starts_with(arg, "--workers=")) {
      workers = static_cast<int>(flag_value(arg, 10));
    } else if (util::starts_with(arg, "--heartbeat-timeout-ms=")) {
      heartbeat_timeout_ms = flag_value(arg, 23);
    } else if (util::starts_with(arg, "--max-setting-crashes=")) {
      max_setting_crashes = static_cast<int>(flag_value(arg, 22));
    } else if (util::starts_with(arg, "--chaos=")) {
      chaos = sim::ChaosSpec::parse(arg.substr(8));  // throws on a bad spec
    } else if (util::starts_with(arg, "--")) {
      std::fprintf(stderr, "omptune study: unknown flag '%s'\n", arg.c_str());
      return usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (options.resume && options.journal_dir.empty()) {
    std::fprintf(stderr, "omptune study: --resume requires --journal=<dir>\n");
    return usage();
  }
  if (workers <= 0 &&
      (heartbeat_timeout_ms >= 0 || max_setting_crashes > 0 ||
       chaos.enabled())) {
    std::fprintf(stderr,
                 "omptune study: --heartbeat-timeout-ms/--max-setting-crashes/"
                 "--chaos require --workers=<N>\n");
    return usage();
  }
  // Journaled runs get the resilient path by default: a checkpointed study
  // is expected to survive bad samples.
  if (!options.journal_dir.empty()) options.resilient = true;

  const std::size_t configs = !positional.empty() ? std::stoul(positional[0]) : 0;
  sim::ModelRunner runner;
  core::Study study(runner);
  sweep::StudyPlan plan = sweep::StudyPlan::paper_plan();
  if (configs > 0) {
    for (auto& arch_plan : plan.arch_plans) {
      for (auto& count : arch_plan.configs_per_setting) count = configs;
    }
  }

  const util::ThreadPool pool = make_analysis_pool();
  core::StudyResult result;
  if (workers > 0) {
    // Process-isolated collection: faults (and injected chaos) are contained
    // to forked workers; the supervisor reassigns their leases and the same
    // seed derivation keeps the dataset identical to a single-process run.
    sweep::SupervisorOptions supervisor_options;
    supervisor_options.workers = workers;
    supervisor_options.journal_dir = options.journal_dir;
    supervisor_options.resume = options.resume;
    supervisor_options.resilient = true;
    supervisor_options.resilience = options.resilience;
    supervisor_options.chaos = chaos;
    if (heartbeat_timeout_ms >= 0) {
      supervisor_options.heartbeat_timeout_ms = heartbeat_timeout_ms;
    }
    if (max_setting_crashes > 0) {
      supervisor_options.max_setting_crashes = max_setting_crashes;
    }
    sweep::SupervisorReport report;
    result = study.run_supervised(
        plan, [] { return std::make_unique<sim::ModelRunner>(); },
        supervisor_options, &report, &pool);
    std::printf("collected %zu samples across %d worker processes\n",
                result.dataset.size(), workers);
    if (report.worker_crashes + report.hang_kills + report.lease_expiries +
            report.protocol_errors >
        0) {
      std::printf("worker faults contained: %zu crashes, %zu hangs killed, "
                  "%zu leases expired, %zu protocol errors (%zu respawns, "
                  "%zu settings reassigned)\n",
                  report.worker_crashes, report.hang_kills,
                  report.lease_expiries, report.protocol_errors,
                  report.respawns, report.reassigned_settings);
    }
    for (const auto& q : report.quarantined_settings) {
      std::printf("quarantined setting %s after %d worker crashes: %s\n",
                  q.key.c_str(), q.crashes, q.evidence.c_str());
    }
    if (report.interrupted) {
      std::printf("study interrupted: %zu/%zu settings completed\n",
                  report.settings_completed, report.settings_total);
      std::string rerun_args;
      for (const std::string& p : positional) rerun_args += p + " ";
      std::printf("resume with: omptune study %s--workers=%d --journal=%s "
                  "--resume\n",
                  rerun_args.c_str(), workers, report.journal_dir.c_str());
      return 130;
    }
  } else {
    sweep::SweepHarness harness(runner, core::StudyOptions{}.repetitions,
                                core::StudyOptions{}.seed);
    result = study.analyze(harness.run_study(plan, options), &pool);
    std::printf("collected %zu samples\n", result.dataset.size());
    if (harness.last_policy() && harness.last_policy()->total_retries() > 0) {
      std::printf("retries performed: %llu\n",
                  static_cast<unsigned long long>(
                      harness.last_policy()->total_retries()));
    }
  }
  const std::size_t quarantined = result.dataset.quarantined_count();
  if (quarantined > 0) {
    std::printf("quarantined %zu samples (excluded from analysis)\n",
                quarantined);
  }
  if (positional.size() > 1) {
    const std::string& out = positional[1];
    if (out.ends_with(".omps")) {
      result.dataset.save_store(out);
      std::printf("dataset stored to %s\n", out.c_str());
    } else {
      std::ofstream os(out);
      if (!os) throw std::runtime_error("cannot open '" + out + "' for writing");
      if (!(os << result.dataset.csv_text())) {
        throw std::runtime_error("write to '" + out + "' failed");
      }
      std::printf("dataset written to %s\n", out.c_str());
    }
  }
  print_artifacts(result);
  return 0;
}

int cmd_coordinate(int argc, char** argv) {
  sweep::CoordinatorOptions options;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::starts_with(arg, "--hosts=")) {
      options.hosts = static_cast<int>(flag_value(arg, 8));
    } else if (util::starts_with(arg, "--shards=")) {
      options.shards = static_cast<std::size_t>(flag_value(arg, 9));
    } else if (util::starts_with(arg, "--dir=")) {
      options.work_dir = arg.substr(6);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (util::starts_with(arg, "--lease-ttl-ms=")) {
      options.lease_ttl_ms = flag_value(arg, 15);
    } else if (util::starts_with(arg, "--heartbeat-timeout-ms=")) {
      options.heartbeat_timeout_ms = flag_value(arg, 23);
    } else if (util::starts_with(arg, "--backoff-base-ms=")) {
      options.backoff.base_ms = flag_value(arg, 18);
    } else if (util::starts_with(arg, "--backoff-max-ms=")) {
      options.backoff.max_ms = flag_value(arg, 17);
    } else if (util::starts_with(arg, "--max-shard-attempts=")) {
      options.max_shard_attempts = static_cast<int>(flag_value(arg, 21));
    } else if (util::starts_with(arg, "--chaos=")) {
      options.chaos = sim::ChaosSpec::parse(arg.substr(8));
    } else if (arg == "--lenient") {
      options.lenient = true;
    } else if (util::starts_with(arg, "--")) {
      std::fprintf(stderr, "omptune coordinate: unknown flag '%s'\n", arg.c_str());
      return usage();
    } else {
      positional.push_back(arg);
    }
  }
  // Positionals: [configs] <out.omps>; a single .omps positional is the
  // output with configs at full scale.
  std::size_t configs = 0;
  std::string out;
  if (positional.size() == 1 && positional[0].ends_with(".omps")) {
    out = positional[0];
  } else if (positional.size() >= 2) {
    configs = std::stoul(positional[0]);
    out = positional[1];
  }
  if (out.empty()) {
    std::fprintf(stderr,
                 "omptune coordinate: an output store path is required\n");
    return usage();
  }
  if (!out.ends_with(".omps")) {
    std::fprintf(stderr,
                 "omptune coordinate: output must be an .omps store, got '%s'\n",
                 out.c_str());
    return usage();
  }
  if (options.resume && options.work_dir.empty()) {
    std::fprintf(stderr, "omptune coordinate: --resume requires --dir=<dir>\n");
    return usage();
  }

  sweep::StudyPlan plan = sweep::StudyPlan::paper_plan();
  if (configs > 0) {
    for (auto& arch_plan : plan.arch_plans) {
      for (auto& count : arch_plan.configs_per_setting) count = configs;
    }
  }

  sweep::Coordinator coordinator(
      [] { return std::make_unique<sim::ModelRunner>(); }, options);
  const sweep::CoordinatorReport& report = coordinator.run(plan, out);

  if (!report.interrupted) {
    std::printf("collected %zu samples across %d host agents (%zu shards)\n",
                report.compaction.samples_out, coordinator.options().hosts,
                report.shards_total);
  }
  if (report.shards_resumed > 0) {
    std::printf("resumed: %zu shards adopted from previous state\n",
                report.shards_resumed);
  }
  if (report.host_crashes + report.hang_kills + report.lease_expiries +
          report.protocol_errors + report.truncated_stores +
          report.duplicate_deliveries >
      0) {
    std::printf("host faults contained: %zu crashes, %zu hangs killed, "
                "%zu leases expired, %zu protocol errors, %zu truncated "
                "stores, %zu duplicate deliveries (%zu re-leases, %zu agent "
                "respawns, %lld ms backoff)\n",
                report.host_crashes, report.hang_kills, report.lease_expiries,
                report.protocol_errors, report.truncated_stores,
                report.duplicate_deliveries, report.re_leases, report.respawns,
                static_cast<long long>(report.backoff_ms_total));
  }
  for (const auto& q : report.quarantined_shards) {
    std::printf("quarantined shard %zu after %d attempts: %s\n", q.shard,
                q.attempts, q.evidence.c_str());
  }
  if (report.interrupted) {
    std::printf("coordination interrupted: %zu/%zu shards completed\n",
                report.shards_completed, report.shards_total);
    const std::string configs_arg =
        configs > 0 ? std::to_string(configs) + " " : "";
    std::printf("resume with: omptune coordinate %s%s --dir=%s --resume\n",
                configs_arg.c_str(), out.c_str(), report.work_dir.c_str());
    return 130;
  }
  if (!report.compaction.skipped_inputs.empty()) {
    std::printf("lenient compaction skipped %zu shard store(s):\n",
                report.compaction.skipped_inputs.size());
    for (const auto& s : report.compaction.skipped_inputs) {
      std::printf("  store %s: %s\n", s.path.c_str(), s.reason.c_str());
    }
  }
  std::printf("compaction: %zu shard stores, %zu tiers, %zu merges "
              "(%zu intermediates reused); %zu samples in, %zu stored, "
              "%zu duplicates dropped\n",
              report.compaction.inputs, report.compaction.tiers,
              report.compaction.merges, report.compaction.reused_intermediates,
              report.compaction.samples_in, report.compaction.samples_out,
              report.compaction.duplicates_dropped);
  if (report.compaction.quarantined > 0) {
    std::printf("quarantined samples retained: %zu\n",
                report.compaction.quarantined);
  }
  std::printf("dataset stored to %s\n", report.store_path.c_str());
  return 0;
}

int cmd_analyze(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string path = argv[2];
  const util::ThreadPool pool = make_analysis_pool();
  sim::ModelRunner runner;
  core::Study study(runner);
  if (path.ends_with(".omps")) {
    // Store path: the slices are read in place; the ML artefacts' sample
    // materialization is row-parallel. A CSV is analysed through its image.
    const store::StoreReader reader(path);
    std::printf("loaded %zu samples\n", reader.size());
    print_artifacts(study.analyze_store(reader, &pool));
    return 0;
  }
  sweep::Dataset dataset = sweep::Dataset::load_csv_file(path);
  std::printf("loaded %zu samples\n", dataset.size());
  print_artifacts(study.analyze(std::move(dataset), &pool));
  return 0;
}

int cmd_compact(int argc, char** argv) {
  if (argc < 4) return usage();
  const sweep::StudyJournal journal(argv[2]);
  if (journal.entry_files().empty() && journal.legacy_entry_files().empty()) {
    std::fprintf(stderr, "omptune compact: no journal entries in %s\n", argv[2]);
    return 1;
  }
  const store::CompactReport report = journal.compact(argv[3]);
  std::printf("compacted %zu journal entries into %s\n", report.entries, argv[3]);
  std::printf("  samples: %zu in, %zu stored\n", report.samples_in,
              report.samples_out);
  std::printf("  duplicates dropped: %zu (%zu kept rows upgraded by a better "
              "status)\n",
              report.duplicates_dropped, report.replaced);
  if (report.quarantined > 0) {
    std::printf("  quarantined samples retained: %zu\n", report.quarantined);
  }
  return 0;
}

/// Print the knowledge-based outputs (variable priority, best known config,
/// strong variable/value pairs) for one (app, arch) pair.
void print_recommendation(const core::KnowledgeBase& kb,
                          const std::vector<analysis::Recommendation>& recs,
                          const std::string& app, const std::string& arch) {
  std::printf("variable priority (most influential first):\n ");
  for (const auto& v : kb.variable_priority(app, arch)) std::printf(" %s", v.c_str());
  std::printf("\n\n");
  try {
    std::printf("best known configuration (%.3fx over default):\n  %s\n",
                kb.best_known_speedup(app, arch),
                kb.best_known_config(app, arch).key().c_str());
  } catch (const std::invalid_argument&) {
    std::printf("no study samples for this (app, arch) pair\n");
  }
  if (!recs.empty()) {
    util::TextTable table("\nstrong variable/value pairs (lift >= 1.5):",
                          {"arch", "variable", "value", "lift"});
    for (const auto& rec : recs) {
      if (rec.lift < 1.5) continue;
      table.add_row({rec.arch, rec.variable, rec.value,
                     util::format_double(rec.lift, 2)});
    }
    std::printf("%s", table.render().c_str());
  }
}

/// `omptune query --remote=<socket> <app> <arch>`: the recommendation
/// answered by a running server in one round trip instead of opening the
/// store locally. Goes through the retrying client, so a shed, a deadline
/// miss or a server the Keeper is mid-restart on is absorbed by bounded
/// backoff instead of surfacing as a one-shot failure.
int query_remote(const std::string& socket_path, const std::string& app,
                 const std::string& arch, const serve::RetryPolicy& policy) {
  serve::RetryingClient client =
      serve::RetryingClient::over_unix(socket_path, policy);
  serve::Request request;
  request.type = serve::MsgType::Recommend;
  request.app = app;
  request.arch = arch;
  serve::Response reply;
  try {
    reply = client.call_one(request);
  } catch (const util::TransientError& error) {
    std::fprintf(stderr, "omptune query: %s\n", error.what());
    return 1;
  }
  if (reply.type == serve::MsgType::Error) {
    std::fprintf(stderr, "omptune query: server error: %s\n",
                 reply.message.c_str());
    return 1;
  }
  std::printf("served by %s (store generation %llu)\n", socket_path.c_str(),
              static_cast<unsigned long long>(reply.generation));
  std::printf("variable priority (most influential first):\n ");
  for (const auto& v : reply.variable_priority) std::printf(" %s", v.c_str());
  std::printf("\n\n");
  if (reply.found) {
    std::printf("best known configuration (%.3fx over default):\n  %s\n",
                reply.speedup, reply.config_key.c_str());
  } else {
    std::printf("no study samples for this (app, arch) pair\n");
    return 1;
  }
  return 0;
}

int cmd_query(int argc, char** argv) {
  std::string remote_socket;
  serve::RetryPolicy retry;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::starts_with(arg, "--remote=")) {
      remote_socket = arg.substr(9);
    } else if (util::starts_with(arg, "--retries=")) {
      retry.max_attempts = std::stoi(arg.substr(10));
    } else if (util::starts_with(arg, "--retry-timeout-ms=")) {
      retry.socket_timeout_ms = std::stoi(arg.substr(19));
    } else if (util::starts_with(arg, "--")) {
      std::fprintf(stderr, "omptune query: unknown flag '%s'\n", arg.c_str());
      return usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (!remote_socket.empty()) {
    if (positional.size() < 2) return usage();
    return query_remote(remote_socket, positional[0], positional[1], retry);
  }
  if (positional.size() < 3) return usage();
  const std::string& path = positional[0];
  const std::string& app = positional[1];
  const std::string& arch = positional[2];

  const store::StoreReader reader(path);
  store::StoreQuery query;
  query.app = app;
  query.arch = arch;
  const sweep::Dataset slice = reader.query(query);
  const std::uint64_t runtime_total =
      static_cast<std::uint64_t>(reader.size()) * reader.repetitions() * 8;
  std::printf("store %s: %zu samples, %zu settings, %llu bytes\n", path.c_str(),
              reader.size(), reader.settings().size(),
              static_cast<unsigned long long>(reader.file_bytes()));
  std::printf("matched %zu samples for %s on %s "
              "(runtime bytes read: %llu of %llu)\n\n",
              slice.size(), app.c_str(), arch.c_str(),
              static_cast<unsigned long long>(reader.runtime_bytes_touched()),
              static_cast<unsigned long long>(runtime_total));
  if (slice.size() == 0) {
    std::printf("no samples for this (app, arch) pair in the store\n");
    return 1;
  }
  const util::ThreadPool pool = make_analysis_pool();
  const core::KnowledgeBase kb(reader, arch, 1.01, &pool);
  print_recommendation(
      kb, analysis::recommend_for_app(reader, app, 0.01, 1.3, &pool), app, arch);
  return 0;
}

int cmd_serve(int argc, char** argv) {
  serve::ServerOptions options;
  serve::KeeperOptions keeper_options;
  bool supervised = false;
  std::vector<std::string> stores;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::starts_with(arg, "--socket=")) {
      options.socket_path = arg.substr(9);
    } else if (util::starts_with(arg, "--tcp-port=")) {
      options.tcp_port = std::stoi(arg.substr(11));
    } else if (util::starts_with(arg, "--cache=")) {
      options.cache_capacity = std::stoul(arg.substr(8));
    } else if (util::starts_with(arg, "--max-pending=")) {
      options.max_pending = std::stoul(arg.substr(14));
    } else if (util::starts_with(arg, "--request-deadline-ms=")) {
      options.request_deadline_ms = std::stol(arg.substr(22));
    } else if (util::starts_with(arg, "--stall-timeout-ms=")) {
      options.stall_timeout_ms = std::stol(arg.substr(19));
    } else if (arg == "--no-admin") {
      options.allow_admin = false;
    } else if (arg == "--supervised") {
      supervised = true;
    } else if (util::starts_with(arg, "--hang-timeout-ms=")) {
      keeper_options.hang_timeout_ms = std::stol(arg.substr(18));
    } else if (util::starts_with(arg, "--max-restarts=")) {
      keeper_options.max_restarts = std::stoi(arg.substr(15));
    } else if (util::starts_with(arg, "--incident-log=")) {
      keeper_options.incident_log_path = arg.substr(15);
    } else if (util::starts_with(arg, "--pid-file=")) {
      keeper_options.pid_file = arg.substr(11);
    } else if (util::starts_with(arg, "--")) {
      std::fprintf(stderr, "omptune serve: unknown flag '%s'\n", arg.c_str());
      return usage();
    } else {
      stores.push_back(arg);
    }
  }
  if (stores.empty() || options.socket_path.empty()) {
    std::fprintf(stderr,
                 "omptune serve: need at least one store and --socket=<path>\n");
    return usage();
  }
  options.threads = g_analysis_threads;
  // Snapshot builds (boot and every swap) size their pool with
  // ThreadPool::default_thread_count(), which reads OMPTUNE_ANALYSIS_THREADS:
  // the flag bounds them through it, in supervised children too.
  if (g_analysis_threads > 0) {
    util::set_env("OMPTUNE_ANALYSIS_THREADS", std::to_string(g_analysis_threads));
  }
  options.log = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };
  if (supervised) {
    // The Keeper forks the server (each child installs its own signal
    // guard); here SIGINT/SIGTERM to the keeper itself become a graceful
    // request_stop — SIGTERM the child, wait out its drain, clean up the
    // socket and pid file.
    keeper_options.server = std::move(options);
    keeper_options.store_paths = stores;
    keeper_options.log = keeper_options.server.log;
    util::ShutdownSignalGuard guard;
    serve::Keeper keeper(std::move(keeper_options));
    std::thread watcher([&] {
      pollfd pfd{guard.wake_fd(), POLLIN, 0};
      while (!guard.triggered()) ::poll(&pfd, 1, 200);
      keeper.request_stop();
    });
    const int rc = keeper.run();
    guard.trigger();  // unblock the watcher when the child drained on its own
    watcher.join();
    return rc;
  }
  options.handle_signals = true;  // SIGINT drains instead of killing mid-reply
  serve::Server server(stores, std::move(options));
  server.run();
  return server.counters().drained_cleanly ? 0 : 1;
}

int cmd_serve_ctl(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string socket_path = argv[2];
  const std::string verb = argv[3];
  serve::Request request;
  if (verb == "stats") {
    request.type = serve::MsgType::Stats;
  } else if (verb == "swap") {
    request.type = serve::MsgType::Swap;
    for (int i = 4; i < argc; ++i) request.store_paths.push_back(argv[i]);
    if (request.store_paths.empty()) {
      std::fprintf(stderr, "omptune serve-ctl: swap needs store paths\n");
      return usage();
    }
  } else if (verb == "shutdown") {
    request.type = serve::MsgType::Shutdown;
  } else {
    return usage();
  }
  serve::Client client = serve::Client::connect_unix(socket_path);
  const serve::Response reply = client.call_one(request);
  switch (reply.type) {
    case serve::MsgType::StatsReply:
      std::printf("generation %llu: %llu rows across %u shard(s)\n",
                  static_cast<unsigned long long>(reply.generation),
                  static_cast<unsigned long long>(reply.store_rows),
                  reply.shards);
      std::printf("served %llu replies in %llu batches, shed %llu\n",
                  static_cast<unsigned long long>(reply.served),
                  static_cast<unsigned long long>(reply.batches),
                  static_cast<unsigned long long>(reply.shed));
      std::printf("cache: %llu hits, %llu misses\n",
                  static_cast<unsigned long long>(reply.cache_hits),
                  static_cast<unsigned long long>(reply.cache_misses));
      std::printf("connections: %llu accepted, %llu active; %llu swap(s)\n",
                  static_cast<unsigned long long>(reply.connections_accepted),
                  static_cast<unsigned long long>(reply.connections_active),
                  static_cast<unsigned long long>(reply.swaps));
      return 0;
    case serve::MsgType::SwapReply:
      std::printf("%s\n", reply.message.c_str());
      return reply.found ? 0 : 1;
    case serve::MsgType::ShutdownReply:
      std::printf("server draining\n");
      return 0;
    case serve::MsgType::Error:
      std::fprintf(stderr, "omptune serve-ctl: server error: %s\n",
                   reply.message.c_str());
      return 1;
    default:
      std::fprintf(stderr, "omptune serve-ctl: unexpected reply type %s\n",
                   serve::to_string(reply.type));
      return 1;
  }
}

int cmd_recommend(int argc, char** argv) {
  std::string store_path;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::starts_with(arg, "--store=")) {
      store_path = arg.substr(8);
    } else if (util::starts_with(arg, "--")) {
      std::fprintf(stderr, "omptune recommend: unknown flag '%s'\n", arg.c_str());
      return usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 2) return usage();
  const std::string& app = positional[0];
  const std::string& arch = positional[1];
  apps::find_application(app);                  // validate
  arch::arch_from_string(arch);                 // validate

  const util::ThreadPool pool = make_analysis_pool();
  if (!store_path.empty()) {
    // Store-backed path: the index materializes only this architecture's
    // slice and this application's rows — no study re-run, no CSV parsing.
    const store::StoreReader reader(store_path);
    const core::KnowledgeBase kb(reader, arch, 1.01, &pool);
    print_recommendation(
        kb, analysis::recommend_for_app(reader, app, 0.01, 1.3, &pool), app,
        arch);
    return 0;
  }
  const store::StoreReader image(quick_study(200));
  const core::KnowledgeBase kb(image, arch, 1.01, &pool);
  print_recommendation(
      kb, analysis::recommend_for_app(image, app, 0.01, 1.3, &pool), app, arch);
  return 0;
}

int cmd_tune(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string app_name = argv[2];
  const std::string arch_name = argv[3];
  const std::string strategy = argc > 4 ? argv[4] : "hill";
  const std::size_t budget = argc > 5 ? std::stoul(argv[5]) : 64;

  const apps::Application& app = apps::find_application(app_name);
  const arch::CpuArch& cpu = arch::architecture(arch::arch_from_string(arch_name));
  const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(cpu);

  sim::ModelRunner runner;
  core::Tuner tuner(runner, app, app.default_input(), cpu);

  core::Tuner::SearchResult result;
  if (strategy == "hill") {
    const core::KnowledgeBase kb(quick_study(150));
    result = tuner.hill_climb(space, cpu.cores,
                              kb.variable_priority(app_name, arch_name));
  } else if (strategy == "random") {
    result = tuner.random_search(space, cpu.cores, budget);
  } else if (strategy == "anneal") {
    result = tuner.simulated_annealing(space, cpu.cores, budget);
  } else if (strategy == "exhaustive") {
    result = tuner.exhaustive(space, cpu.cores);
  } else {
    return usage();
  }
  std::printf("%s: %zu evaluations, speedup %.3fx over the default\n",
              strategy.c_str(), result.evaluations, result.speedup);
  std::printf("best configuration: %s\n", result.best_config.key().c_str());
  std::printf("export:\n");
  for (const auto& assignment : result.best_config.to_env(cpu)) {
    if (assignment.value) {
      std::printf("  export %s=%s\n", assignment.name.c_str(),
                  assignment.value->c_str());
    }
  }
  return 0;
}

int cmd_violin(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string app_name = argv[2];
  apps::find_application(app_name);  // validate

  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner);
  sweep::StudyPlan plan = sweep::StudyPlan::paper_plan();
  for (auto& arch_plan : plan.arch_plans) {
    std::vector<sweep::StudySetting> kept;
    std::vector<std::size_t> counts;
    for (std::size_t i = 0; i < arch_plan.settings.size(); ++i) {
      if (arch_plan.settings[i].app->name() == app_name) {
        kept.push_back(arch_plan.settings[i]);
        counts.push_back(arch_plan.configs_per_setting[i]);
      }
    }
    arch_plan.settings = std::move(kept);
    arch_plan.configs_per_setting = std::move(counts);
  }
  const sweep::Dataset dataset = harness.run_study(plan);

  std::map<std::string, std::vector<double>> groups;
  for (const auto& s : dataset.samples()) {
    groups[s.arch + "/" + s.input + "/t" + std::to_string(s.threads)].push_back(
        s.mean_runtime);
  }
  for (const auto& [key, runtimes] : groups) {
    std::printf("\n--- %s (%zu configs, median %.3fs) ---\n", key.c_str(),
                runtimes.size(), stats::median(runtimes));
    std::printf("%s", stats::render_ascii_violin(runtimes, 10, 44).c_str());
  }
  return 0;
}

}  // namespace

rt::RtConfig parse_config_tokens(int argc, char** argv, int first,
                                 const arch::CpuArch& cpu) {
  std::vector<util::ScopedEnv::Assignment> assignments;
  for (int i = first; i < argc; ++i) {
    const auto parts = util::split(argv[i], '=');
    if (parts.size() != 2) {
      throw std::invalid_argument(std::string("bad config token '") + argv[i] +
                                  "' (expected NAME=value)");
    }
    assignments.push_back({parts[0], parts[1]});
  }
  const util::ScopedEnv env(std::move(assignments));
  return rt::RtConfig::from_env(cpu);
}

int cmd_model(int argc, char** argv) {
  if (argc < 4) return usage();
  const apps::Application& app = apps::find_application(argv[2]);
  const arch::CpuArch& cpu = arch::architecture(arch::arch_from_string(argv[3]));

  // Split --calibration=FILE from the NAME=value config tokens.
  rt::CalibrationTable calibration = rt::CalibrationTable::fallback();
  std::vector<char*> tokens;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::starts_with(arg, "--calibration=")) {
      calibration = rt::CalibrationTable::load(arg.substr(14));
    } else {
      tokens.push_back(argv[i]);
    }
  }
  const rt::RtConfig config = parse_config_tokens(
      static_cast<int>(tokens.size()), tokens.data(), 0, cpu);

  sim::PerfModel model(std::move(calibration));
  const sim::ModelBreakdown b =
      model.breakdown(app, app.default_input(), cpu, config);
  std::printf("config: %s\n\n", config.key().c_str());
  std::printf("predicted runtime: %.4f s\n", b.total_seconds);
  std::printf("  serial              %.4f s\n", b.serial_seconds);
  std::printf("  compute (parallel)  %.4f s\n", b.compute_seconds);
  std::printf("  memory  (parallel)  %.4f s\n", b.memory_seconds);
  std::printf("  region overhead     %.5f s\n", b.region_overhead_seconds);
  std::printf("  reductions          %.5f s\n", b.reduction_overhead_seconds);
  std::printf("  loop coordination   %.5f s\n", b.schedule_coordination_seconds);
  std::printf("factors: idle %.3f  imbalance %.3f  locality %.3f  contention %.3f"
              "  oversubscription %.3f  align %.3f\n",
              b.task_idle_factor, b.imbalance_factor, b.locality_factor,
              b.contention_factor, b.oversubscription_factor, b.align_factor);

  const sim::EnergyModel energy(model);
  const auto e = energy.estimate(app, app.default_input(), cpu, config);
  std::printf("\nenergy: %.0f W avg (%.0f W spinning) -> %.1f kJ, EDP %.1f kJ*s\n",
              e.avg_watts, e.spin_watts, e.joules / 1000.0, e.edp / 1000.0);
  return 0;
}

int cmd_threads(int argc, char** argv) {
  if (argc < 4) return usage();
  const apps::Application& app = apps::find_application(argv[2]);
  const arch::CpuArch& cpu = arch::architecture(arch::arch_from_string(argv[3]));
  sim::PerfModel model;
  const auto advice = core::advise_threads(model, app, app.default_input(), cpu,
                                           rt::RtConfig::defaults_for(cpu));
  for (const auto& point : advice.curve) {
    std::printf("  %3d threads: %8.3f s  speedup %6.2f  efficiency %.2f\n",
                point.threads, point.seconds, point.speedup_vs_one,
                point.parallel_efficiency);
  }
  std::printf("fastest: %d threads; recommended (within 5%%): %d threads\n",
              advice.fastest_threads, advice.recommended_threads);
  return 0;
}

int main(int argc, char** argv) {
  // --analysis-threads=N applies to every command; strip it here so the
  // per-command parsers only see their own arguments.
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::starts_with(arg, "--analysis-threads=")) {
      const std::string value = arg.substr(19);
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos ||
          std::stoul(value) < 1 || std::stoul(value) > 4096) {
        std::fprintf(stderr,
                     "omptune: --analysis-threads expects an integer in "
                     "[1, 4096], got '%s'\n",
                     value.c_str());
        return 2;
      }
      g_analysis_threads = static_cast<unsigned>(std::stoul(value));
      continue;
    }
    args.push_back(argv[i]);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "list") return cmd_list();
    if (command == "study") return cmd_study(argc, argv);
    if (command == "coordinate") return cmd_coordinate(argc, argv);
    if (command == "analyze") return cmd_analyze(argc, argv);
    if (command == "compact") return cmd_compact(argc, argv);
    if (command == "query") return cmd_query(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "serve-ctl") return cmd_serve_ctl(argc, argv);
    if (command == "recommend") return cmd_recommend(argc, argv);
    if (command == "tune") return cmd_tune(argc, argv);
    if (command == "violin") return cmd_violin(argc, argv);
    if (command == "model") return cmd_model(argc, argv);
    if (command == "threads") return cmd_threads(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "omptune: %s\n", error.what());
    return 1;
  }
  return usage();
}
