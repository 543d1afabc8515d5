#pragma once

// Retry / timeout / quarantine policy for sample collection.
//
// Cluster measurement campaigns routinely hit preempted jobs, hung kernels
// and garbage readings; the paper's 240k-sample dataset was collected in
// exactly such batches. This layer makes one sample measurement robust:
//
//  - a watchdog enforces a per-sample deadline around sim::Runner::run
//    (hangs surface as util::TransientError instead of wedging the study);
//  - failed or non-finite measurements are retried a bounded number of
//    times with deterministic exponential backoff;
//  - (arch, app, config) triples that exhaust their retries land on a
//    quarantine list: the sample is recorded with
//    SampleStatus::Quarantined and placeholder runtimes, later samples of
//    the same triple fail fast, and the study carries on.
//
// util::StudyAbort (simulated process death) is never absorbed — it always
// escapes, so interrupted studies stop exactly where a crash would.

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>

#include "apps/application.hpp"
#include "arch/cpu_arch.hpp"
#include "rt/config.hpp"
#include "sim/executor.hpp"
#include "sweep/dataset.hpp"

namespace omptune::sweep {

struct ResilienceOptions {
  /// Additional attempts after the first failure (0 = fail straight to
  /// quarantine).
  int max_retries = 2;
  /// Per-sample deadline in milliseconds; 0 disables the watchdog (no
  /// per-call thread, zero overhead).
  std::int64_t sample_timeout_ms = 0;
  /// Base of the deterministic exponential backoff between retries
  /// (base * 2^(attempt-1) ms); 0 disables sleeping (tests, model mode).
  std::int64_t backoff_base_ms = 0;
};

/// Outcome of measuring one (setting, config, repetition) sample.
struct MeasureOutcome {
  double runtime = 0.0;  ///< valid only when status != Quarantined
  SampleStatus status = SampleStatus::Ok;
  int attempts = 1;      ///< attempts consumed, including the successful one
  std::string error;     ///< last failure message when attempts > 1 or failed
};

/// Stateful policy applied around every Runner call of a study. Keeps the
/// quarantine list across settings so persistently failing triples stop
/// burning retry budget.
class ResiliencePolicy {
 public:
  explicit ResiliencePolicy(ResilienceOptions options = {});

  /// One guarded measurement. Never throws for runner failures — those are
  /// retried and finally quarantined. util::StudyAbort always propagates.
  MeasureOutcome measure(sim::Runner& runner, const apps::Application& app,
                         const apps::InputSize& input, const arch::CpuArch& cpu,
                         const rt::RtConfig& config, std::uint64_t batch_seed,
                         int repetition, std::uint64_t sample_index);

  /// Quarantine key for a sample triple.
  static std::string quarantine_key(const arch::CpuArch& cpu,
                                    const apps::Application& app,
                                    const rt::RtConfig& config);

  bool is_quarantined(const std::string& key) const {
    return quarantined_.count(key) > 0;
  }
  const std::set<std::string>& quarantined() const { return quarantined_; }

  const ResilienceOptions& options() const { return options_; }

  /// Total retries performed across the study (observability/bench).
  std::uint64_t total_retries() const { return total_retries_; }

 private:
  ResilienceOptions options_;
  std::set<std::string> quarantined_;
  std::uint64_t total_retries_ = 0;
};

/// Run `runner.run(...)` under a deadline. `timeout_ms <= 0` calls through
/// directly. On overrun the worker thread is abandoned (detached) and
/// util::TransientError is thrown; runner exceptions are rethrown as-is.
double run_with_deadline(sim::Runner& runner, const apps::Application& app,
                         const apps::InputSize& input, const arch::CpuArch& cpu,
                         const rt::RtConfig& config, std::uint64_t batch_seed,
                         int repetition, std::uint64_t sample_index,
                         std::int64_t timeout_ms);

/// run_with_deadline attempts that have not returned from the runner yet,
/// abandoned ones included. An abandoned attempt keeps using the runner,
/// application, input, architecture and configuration it was given until
/// the runner returns; an owner about to destroy those waits for this to
/// reach zero.
std::size_t watchdog_attempts_in_flight();

}  // namespace omptune::sweep
