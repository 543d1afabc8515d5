#include "sim/fault_runner.hpp"

#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

#include "util/strings.hpp"

namespace omptune::sim {

ChaosSpec ChaosSpec::parse(const std::string& text) {
  ChaosSpec spec;
  if (text.empty()) return spec;
  for (const std::string& token : util::split(text, ',')) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("chaos spec: token '" + token +
                                  "' is not key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    try {
      if (key == "seed") {
        spec.seed = std::stoull(value);
      } else if (key == "kill") {
        spec.kill_rate = std::stod(value);
      } else if (key == "segv") {
        spec.segv_rate = std::stod(value);
      } else if (key == "wedge") {
        spec.wedge_rate = std::stod(value);
      } else if (key == "garble") {
        spec.garble_rate = std::stod(value);
      } else if (key == "truncate") {
        spec.truncate_rate = std::stod(value);
      } else if (key == "dup") {
        spec.duplicate_rate = std::stod(value);
      } else if (key == "sticky") {
        spec.sticky_kill_substr = value;
      } else {
        throw std::invalid_argument("chaos spec: unknown key '" + key + "'");
      }
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      throw std::invalid_argument("chaos spec: bad value for '" + key + "': '" +
                                  value + "'");
    }
  }
  return spec;
}

std::string ChaosSpec::describe() const {
  std::string out = "seed=" + std::to_string(seed);
  const auto add = [&out](const char* key, double rate) {
    if (rate > 0) out += std::string(",") + key + "=" + std::to_string(rate);
  };
  add("kill", kill_rate);
  add("segv", segv_rate);
  add("wedge", wedge_rate);
  add("garble", garble_rate);
  add("truncate", truncate_rate);
  add("dup", duplicate_rate);
  if (!sticky_kill_substr.empty()) out += ",sticky=" + sticky_kill_substr;
  return out;
}

const char* to_string(ChaosAction action) {
  switch (action) {
    case ChaosAction::None: return "none";
    case ChaosAction::Kill: return "kill";
    case ChaosAction::Segv: return "segv";
    case ChaosAction::Wedge: return "wedge";
    case ChaosAction::Garble: return "garble";
  }
  return "?";
}

const char* to_string(ShardFault fault) {
  switch (fault) {
    case ShardFault::None: return "none";
    case ShardFault::KillHolder: return "kill-holder";
    case ShardFault::StallHeartbeat: return "stall-heartbeat";
    case ShardFault::TruncateStore: return "truncate-store";
    case ShardFault::DuplicateDelivery: return "duplicate-delivery";
  }
  return "?";
}

ChaosAction ChaosMonkey::draw(const std::string& setting_key, int attempt,
                              std::uint64_t sample) const {
  if (!spec_.enabled()) return ChaosAction::None;
  if (!spec_.sticky_kill_substr.empty() &&
      setting_key.find(spec_.sticky_kill_substr) != std::string::npos) {
    return ChaosAction::Kill;  // poisonous on every attempt, by design
  }
  std::uint64_t h = util::hash_combine(spec_.seed, util::stable_hash(setting_key));
  h = util::hash_combine(h, static_cast<std::uint64_t>(attempt) + 1);
  h = util::hash_combine(h, sample + 1);
  const double draw =
      static_cast<double>(util::SplitMix64(h).next() >> 11) * 0x1.0p-53;

  double threshold = spec_.kill_rate;
  if (draw < threshold) return ChaosAction::Kill;
  if (draw < (threshold += spec_.segv_rate)) return ChaosAction::Segv;
  if (draw < (threshold += spec_.wedge_rate)) return ChaosAction::Wedge;
  if (draw < (threshold += spec_.garble_rate)) return ChaosAction::Garble;
  return ChaosAction::None;
}

ShardFault ChaosMonkey::draw_shard_fault(const std::string& shard_key,
                                         int attempt) const {
  if (!spec_.enabled()) return ShardFault::None;
  // Salted differently from the per-sample draw so the two streams are
  // independent for the same seed.
  std::uint64_t h = util::hash_combine(spec_.seed, 0x5d4a12df00d5ULL);
  h = util::hash_combine(h, util::stable_hash(shard_key));
  h = util::hash_combine(h, static_cast<std::uint64_t>(attempt) + 1);
  const double draw =
      static_cast<double>(util::SplitMix64(h).next() >> 11) * 0x1.0p-53;

  double threshold = spec_.kill_rate;
  if (draw < threshold) return ShardFault::KillHolder;
  if (draw < (threshold += spec_.wedge_rate)) return ShardFault::StallHeartbeat;
  if (draw < (threshold += spec_.truncate_rate)) return ShardFault::TruncateStore;
  if (draw < (threshold += spec_.duplicate_rate))
    return ShardFault::DuplicateDelivery;
  return ShardFault::None;
}

double FaultInjectingRunner::run(const apps::Application& app,
                                 const apps::InputSize& input,
                                 const arch::CpuArch& cpu,
                                 const rt::RtConfig& config,
                                 std::uint64_t batch_seed, int repetition,
                                 std::uint64_t sample_index) {
  const std::string sample_id = std::to_string(batch_seed) + "/" +
                                std::to_string(sample_index) + "/" +
                                std::to_string(repetition);
  const int attempt = spec_.sticky ? 0 : attempts_[sample_id]++;

  // One uniform draw decides the fault; the same (sample, attempt) always
  // draws the same value, independent of execution order.
  std::uint64_t h = util::hash_combine(spec_.seed, batch_seed);
  h = util::hash_combine(h, sample_index);
  h = util::hash_combine(h, static_cast<std::uint64_t>(repetition) + 1);
  h = util::hash_combine(h, static_cast<std::uint64_t>(attempt) + 1);
  // hash_combine alone leaves small-integer differences in the low bits;
  // SplitMix64 finalizes with full avalanche so the draw is uniform.
  const double draw =
      static_cast<double>(util::SplitMix64(h).next() >> 11) * 0x1.0p-53;

  double threshold = spec_.crash_rate;
  if (draw < threshold) {
    throw util::TransientError("injected crash (sample " + sample_id + ")");
  }
  if (draw < (threshold += spec_.hang_rate)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(spec_.hang_ms));
    // Fall through and return the real value: the watchdog has already
    // given up, and a late result from an abandoned attempt must not be
    // mistaken for success.
  } else if (draw < (threshold += spec_.nan_rate)) {
    return std::numeric_limits<double>::quiet_NaN();
  }

  double runtime = inner_->run(app, input, cpu, config, batch_seed, repetition,
                               sample_index);

  if (draw >= threshold && draw < (threshold += spec_.negative_rate)) {
    return -runtime;
  }
  if (draw >= threshold && draw < (threshold += spec_.spike_rate)) {
    runtime *= spec_.spike_factor;
  }

  ++completed_;
  if (spec_.kill_after_runs > 0 && completed_ >= spec_.kill_after_runs) {
    throw util::StudyAbort("simulated process death after " +
                           std::to_string(completed_) + " runs");
  }
  return runtime;
}

}  // namespace omptune::sim
