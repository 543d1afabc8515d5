// perfbench — one workload of the end-to-end benchmark per process.
//
//   perfbench --workload <table2-pipeline|fleet-collect|serve-mixed|
//                         native-runtime>
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--references FILE] [--trace-out FILE] [--mini]
//             [--inject-fault] [--record]
//
// Prints the run's conditions, then as the last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics of this workload traced. Exits 1
// when any output check failed. perfbench/run.py builds and drives it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--references") {
      options.references = value();
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--mini") {
      options.mini = true;
    } else if (arg == "--inject-fault") {
      options.inject_fault = true;
    } else if (arg == "--record") {
      options.record = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.work_dir.empty()) return usage("--work-dir is required");

  std::printf("conditions: workload=%s seed=%llu seconds=%g trace=%d size=%s nproc=%u "
              "build=%s compiler=\"%s\"\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.mini ? "mini" : "full",
              options.nproc, PERFBENCH_BUILD_TYPE, __VERSION__);
  std::fflush(stdout);

  perfbench::Result result;
  try {
    if (options.workload == "table2-pipeline") {
      perfbench::run_table2(options, result);
    } else if (options.workload == "fleet-collect") {
      perfbench::run_fleet(options, result);
    } else if (options.workload == "serve-mixed") {
      perfbench::run_serve(options, result);
    } else if (options.workload == "native-runtime") {
      perfbench::run_native(options, result);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }
  if (options.record) return 0;
  std::printf("%s\n", result.json().c_str());
  return result.failed() == 0 ? 0 : 1;
}
