#pragma once

// Deterministic fault injection for resilience testing.
//
// FaultInjectingRunner wraps any Runner and, based purely on a seeded hash
// of (batch_seed, sample_index, repetition, per-sample attempt number),
// injects the cluster failure modes the resilience layer must survive:
//   - crashes:   throws util::TransientError (a preempted/killed run),
//   - hangs:     sleeps past the watchdog deadline before returning,
//   - NaN / negative runtimes (a garbage reading),
//   - noise spikes: multiplies the runtime by spike_factor.
// Because the decision includes the attempt number, a fault that fires on
// attempt 1 deterministically clears (or not) on retry — every test run
// reproduces the same schedule of failures.
//
// `kill_after_runs` additionally simulates process death: after N
// successful forwarded runs the decorator throws util::StudyAbort, which
// the resilience policy deliberately lets escape. Tests use this to kill a
// journaled study at an arbitrary point and exercise resume.

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "sim/executor.hpp"
#include "util/errors.hpp"

namespace omptune::sim {

struct FaultSpec {
  std::uint64_t seed = 0;        ///< fault stream seed (independent of data)
  double crash_rate = 0.0;       ///< P(throw TransientError)
  double hang_rate = 0.0;        ///< P(sleep hang_ms before returning)
  double nan_rate = 0.0;         ///< P(return NaN)
  double negative_rate = 0.0;    ///< P(return -runtime)
  double spike_rate = 0.0;       ///< P(runtime *= spike_factor)
  std::int64_t hang_ms = 50;     ///< injected hang duration (bounded!)
  double spike_factor = 25.0;
  /// Sticky faults: triples listed here fail on EVERY attempt (exercises
  /// quarantine). Key format: "<arch>/<app>/<sample_index>".
  bool sticky = false;
  /// > 0: throw util::StudyAbort after this many successful runs.
  std::uint64_t kill_after_runs = 0;
};

// ---- process-level chaos ----------------------------------------------------
//
// ChaosSpec describes faults at the WORKER PROCESS level rather than the
// measurement level: the supervisor's containment path (crash detection,
// heartbeat timeouts, protocol-garbage handling, shard reassignment,
// crash-count quarantine) must be testable without waiting for real
// faults. A ChaosMonkey embedded in the worker draws deterministically per
// (seed, setting key, attempt, sample counter) — attempt is the number of
// times the setting has already crashed a worker, handed down in the lease
// — so a chaos schedule reproduces exactly across runs and machines, and a
// setting that killed its worker once does not deterministically kill every
// replacement.

struct ChaosSpec {
  std::uint64_t seed = 0;     ///< chaos stream seed
  double kill_rate = 0.0;     ///< P(raise SIGKILL) per completed sample
  double segv_rate = 0.0;     ///< P(raise SIGSEGV) per completed sample
  double wedge_rate = 0.0;    ///< P(stop making progress forever)
  double garble_rate = 0.0;   ///< P(write protocol garbage to the supervisor)
  /// Coordinator-facing rates (shard-level faults, drawn per lease attempt
  /// via draw_shard_fault rather than per sample):
  double truncate_rate = 0.0;   ///< P(truncate the published shard store)
  double duplicate_rate = 0.0;  ///< P(deliver the same shard twice)
  /// Setting keys containing this substring are killed on EVERY attempt —
  /// the deterministic "poisonous setting" that must end in quarantine.
  std::string sticky_kill_substr;

  bool enabled() const {
    return kill_rate > 0 || segv_rate > 0 || wedge_rate > 0 ||
           garble_rate > 0 || truncate_rate > 0 || duplicate_rate > 0 ||
           !sticky_kill_substr.empty();
  }

  /// Parse "seed=7,kill=0.02,segv=0.01,wedge=0.01,garble=0.01,truncate=0.01,
  /// dup=0.01,sticky=bt" (any subset, any order). Throws
  /// std::invalid_argument on unknown keys or malformed values.
  static ChaosSpec parse(const std::string& text);

  /// Render back to the parse() syntax (CLI echo, resume hints).
  std::string describe() const;
};

/// What the chaos draw decided for one observation point.
enum class ChaosAction { None, Kill, Segv, Wedge, Garble };

const char* to_string(ChaosAction action);

/// Shard-level fault decided once per (shard, lease attempt) — the failure
/// modes a multi-host coordinator must contain:
///   KillHolder        the lease-holding host dies mid-shard,
///   StallHeartbeat    the host stops heartbeating but stays alive,
///   TruncateStore     the host publishes a truncated .omps and claims done,
///   DuplicateDelivery the host reports the same shard done twice.
enum class ShardFault { None, KillHolder, StallHeartbeat, TruncateStore,
                        DuplicateDelivery };

const char* to_string(ShardFault fault);

/// Deterministic per-sample chaos decision stream for one worker process.
class ChaosMonkey {
 public:
  explicit ChaosMonkey(ChaosSpec spec) : spec_(std::move(spec)) {}

  /// Decide the fate of the worker after one more completed sample of
  /// `setting_key`. `attempt` is the setting's prior crash count (from the
  /// lease); `sample` counts samples within the setting.
  ChaosAction draw(const std::string& setting_key, int attempt,
                   std::uint64_t sample) const;

  /// Decide the shard-level fault for one lease attempt of `shard_key`
  /// (e.g. "shard-3"). Hashed with a salt distinct from the sample-level
  /// draw so the two streams are independent; deterministic per
  /// (seed, shard_key, attempt).
  ShardFault draw_shard_fault(const std::string& shard_key, int attempt) const;

  const ChaosSpec& spec() const { return spec_; }

 private:
  ChaosSpec spec_;
};

class FaultInjectingRunner final : public Runner {
 public:
  FaultInjectingRunner(Runner& inner, FaultSpec spec)
      : inner_(&inner), spec_(spec) {}

  double run(const apps::Application& app, const apps::InputSize& input,
             const arch::CpuArch& cpu, const rt::RtConfig& config,
             std::uint64_t batch_seed, int repetition,
             std::uint64_t sample_index) override;

  /// Successful (non-faulted) runs forwarded so far.
  std::uint64_t completed_runs() const { return completed_; }

  const FaultSpec& spec() const { return spec_; }

 private:
  Runner* inner_;
  FaultSpec spec_;
  std::uint64_t completed_ = 0;
  /// Attempt counters per (batch_seed, sample_index, repetition) so retries
  /// of the same sample see a fresh (but deterministic) fault draw.
  std::map<std::string, int> attempts_;
};

}  // namespace omptune::sim
