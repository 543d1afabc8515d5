#include "sweep/resilience.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "util/errors.hpp"

namespace omptune::sweep {

namespace {

/// Shared between the caller and the (possibly abandoned) worker thread.
struct WatchdogState {
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  double result = 0.0;
  std::exception_ptr error;
};

std::atomic<std::size_t> g_attempts_in_flight{0};

}  // namespace

std::size_t watchdog_attempts_in_flight() {
  return g_attempts_in_flight.load(std::memory_order_acquire);
}

double run_with_deadline(sim::Runner& runner, const apps::Application& app,
                         const apps::InputSize& input, const arch::CpuArch& cpu,
                         const rt::RtConfig& config, std::uint64_t batch_seed,
                         int repetition, std::uint64_t sample_index,
                         std::int64_t timeout_ms) {
  if (timeout_ms <= 0) {
    return runner.run(app, input, cpu, config, batch_seed, repetition,
                      sample_index);
  }

  auto state = std::make_shared<WatchdogState>();
  // Counted before the worker starts (it may finish first), and uncounted
  // again if it never starts.
  g_attempts_in_flight.fetch_add(1, std::memory_order_relaxed);
  std::thread worker;
  try {
    worker = std::thread([state, &runner, &app, &input, &cpu, config,
                          batch_seed, repetition, sample_index] {
      double result = 0.0;
      std::exception_ptr error;
      try {
        result = runner.run(app, input, cpu, config, batch_seed, repetition,
                            sample_index);
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->result = result;
        state->error = error;
        state->done = true;
        state->done_cv.notify_all();
      }
      // The last touch of anything outside `state`: from here on the
      // caller's runner and input may go.
      g_attempts_in_flight.fetch_sub(1, std::memory_order_release);
    });
  } catch (...) {
    g_attempts_in_flight.fetch_sub(1, std::memory_order_release);
    throw;
  }

  std::unique_lock<std::mutex> lock(state->mutex);
  const bool finished = state->done_cv.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&state] { return state->done; });
  if (!finished) {
    // The worker may be wedged forever; abandon it. Besides the shared
    // state (kept alive by its copy of the shared_ptr) it still uses the
    // caller-side references (runner, app, input, ...) until the runner
    // returns, so their owner must outlive the attempt — the study, or a
    // wait for watchdog_attempts_in_flight() to reach zero. Runner hangs
    // here are bounded sleeps; a real collection daemon would kill the
    // child process instead.
    lock.unlock();
    worker.detach();
    throw util::TransientError("sample exceeded deadline of " +
                               std::to_string(timeout_ms) + " ms");
  }
  lock.unlock();
  worker.join();
  if (state->error) std::rethrow_exception(state->error);
  return state->result;
}

ResiliencePolicy::ResiliencePolicy(ResilienceOptions options)
    : options_(options) {}

std::string ResiliencePolicy::quarantine_key(const arch::CpuArch& cpu,
                                             const apps::Application& app,
                                             const rt::RtConfig& config) {
  return cpu.name + "/" + app.name() + "/" + config.key();
}

MeasureOutcome ResiliencePolicy::measure(
    sim::Runner& runner, const apps::Application& app,
    const apps::InputSize& input, const arch::CpuArch& cpu,
    const rt::RtConfig& config, std::uint64_t batch_seed, int repetition,
    std::uint64_t sample_index) {
  MeasureOutcome outcome;
  // Fast path: no quarantined triples and no watchdog means the only cost
  // over a bare runner call is the finiteness check — the key string is
  // built lazily, only once a failure actually needs it.
  if (!quarantined_.empty() &&
      is_quarantined(quarantine_key(cpu, app, config))) {
    outcome.status = SampleStatus::Quarantined;
    outcome.attempts = 0;
    outcome.error = "already quarantined";
    return outcome;
  }

  const int max_attempts = 1 + std::max(0, options_.max_retries);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1 && options_.backoff_base_ms > 0) {
      // Deterministic exponential backoff: base * 2^(attempt-2).
      const auto delay = options_.backoff_base_ms << (attempt - 2);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    outcome.attempts = attempt;
    try {
      const double runtime = run_with_deadline(
          runner, app, input, cpu, config, batch_seed, repetition,
          sample_index, options_.sample_timeout_ms);
      if (!std::isfinite(runtime) || runtime <= 0.0) {
        throw util::TransientError("non-finite or non-positive runtime " +
                                   std::to_string(runtime));
      }
      outcome.runtime = runtime;
      outcome.status = attempt == 1 ? SampleStatus::Ok : SampleStatus::Retried;
      if (attempt > 1) {
        total_retries_ += static_cast<std::uint64_t>(attempt - 1);
      }
      return outcome;
    } catch (const util::StudyAbort&) {
      throw;  // simulated process death: never absorbed
    } catch (const util::PermanentError& error) {
      outcome.error = error.what();
      break;  // retrying cannot help
    } catch (const std::exception& error) {
      outcome.error = error.what();
      // transient (or unclassified) — retry if budget remains
    }
  }

  total_retries_ += static_cast<std::uint64_t>(outcome.attempts - 1);
  outcome.status = SampleStatus::Quarantined;
  outcome.runtime = 0.0;
  quarantined_.insert(quarantine_key(cpu, app, config));
  return outcome;
}

}  // namespace omptune::sweep
