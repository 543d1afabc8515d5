#pragma once

// CPU architecture descriptors for the three machines the paper's study ran
// on (Table I), plus derived micro-architectural parameters consumed by the
// performance model (src/sim) and by the runtime's configuration defaults
// (KMP_ALIGN_ALLOC defaults to the cache-line size).

#include <string>
#include <vector>

namespace omptune::arch {

enum class ArchId {
  A64FX,    ///< Fujitsu A64FX (aarch64, SVE, HBM2)
  Skylake,  ///< Intel Xeon Gold 6148 (Skylake-SP)
  Milan,    ///< AMD EPYC 7643 (Zen 3)
};

/// Human-readable identifier used in datasets ("a64fx", "skylake", "milan").
std::string to_string(ArchId id);

/// Parse a dataset identifier back to an ArchId; throws std::invalid_argument.
ArchId arch_from_string(const std::string& name);

/// Static description of one CPU, combining the paper's Table I columns with
/// the micro-architectural parameters the performance model needs.
struct CpuArch {
  ArchId id;
  std::string name;         ///< dataset identifier, e.g. "a64fx"
  std::string description;  ///< marketing name, e.g. "Fujitsu A64FX"

  // ---- Table I columns ----
  int cores = 0;          ///< total physical cores
  int sockets = 1;        ///< 0 sockets in the paper's A64FX row is printed "-"
  int numa_nodes = 1;     ///< NUMA domains (A64FX: 4 CMGs)
  double clock_ghz = 0;   ///< base clock
  std::string memory_type;  ///< "HBM" or "DDR4"
  int memory_gb = 0;

  // ---- derived / micro-architectural ----
  int cacheline_bytes = 64;    ///< 256 on A64FX, 64 on both X86 parts
  int ll_caches = 1;           ///< number of last-level cache groups
  double mem_bw_gbs = 0;       ///< aggregate memory bandwidth (GB/s)
  double numa_remote_penalty = 1.0;  ///< remote/local access latency ratio

  /// Relative run-to-run measurement noise (log-normal sigma). Calibrated so
  /// the Wilcoxon consistency results of Tables III/IV reproduce: A64FX is
  /// near-deterministic, both X86 machines are noisy.
  double noise_sigma = 0.0;
  /// Magnitude of the systematic between-repetition drift observed on the
  /// X86 machines (shared cluster): each repetition batch carries a bias.
  double repetition_drift = 0.0;

  // ---- calibrated performance-model parameters (see src/sim) ----
  /// Cost of one sched_yield poll while idle-spinning in throughput mode.
  double yield_latency_us = 2.0;
  /// Cost of a condition-variable sleep/wake round trip.
  double sleep_latency_us = 40.0;
  /// Probability that an unbound thread's memory access loses NUMA locality
  /// (captures both OS migration frequency and first-touch dilution). Near
  /// zero on A64FX (HBM + CMG-local scheduling) and Skylake (2 nodes, NUMA
  /// balancing effective), large on Milan (NPS4, 8 nodes).
  double unbound_locality_loss = 0.1;
  /// Queueing amplification when memory demand exceeds saturation
  /// bandwidth (cross-CCX/directory contention on Milan).
  double bw_contention = 0.05;
  /// Single-thread memory-time multiplier relative to Skylake (HBM has high
  /// latency despite its bandwidth).
  double serial_mem_factor = 1.0;

  int cores_per_socket() const { return cores / (sockets > 0 ? sockets : 1); }
  int cores_per_numa() const { return cores / (numa_nodes > 0 ? numa_nodes : 1); }
  int cores_per_llc() const { return cores / (ll_caches > 0 ? ll_caches : 1); }
};

/// The three architectures of the study, in the paper's Table I order.
const std::vector<CpuArch>& all_architectures();

/// Lookup by id; the returned reference has static storage duration.
const CpuArch& architecture(ArchId id);

}  // namespace omptune::arch
