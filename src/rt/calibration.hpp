#pragma once

// Measured-cost table for the performance model's primitive terms.
//
// The perf model's region-overhead, idle-latency, coordination, and
// reduction terms used to be hard-coded constants; this table makes them
// data. bench/micro_primitives measures the real primitives on the host
// (barrier phase per variant x team size, park/unpark round-trip, contended
// CAS/fetch-add, lock acquire) and emits a table; sim::PerfModel consumes
// one. The default-constructed table IS the historical constants, so a
// PerfModel built without a table predicts bit-identically to the code the
// constants lived in — the checked-in docs/calibration/fallback.cal is that
// same table serialized, and tests/calibration_test pins all three equal.
//
// Serialized form: a version line "omptune-calibration v1" followed by
// key=value lines ('#' comments allowed). Doubles round-trip exactly
// (max_digits10). Unknown keys and foreign versions are rejected loudly —
// tables are machine-generated, so a mismatch is a defect, not noise.

#include <map>
#include <string>

namespace omptune::rt {

/// Primitive costs consumed by sim::PerfModel. All times in microseconds.
/// Field defaults are the historical model constants (the fallback table).
struct CalibrationTable {
  // ---- model-facing terms (defaults = historical constants) --------------
  /// Idle pickup base latency (active/spinning waiter).
  double idle_active_us = 0.3;
  /// Extra idle latency per unit of the host's yield latency (throughput
  /// mode yields between polls).
  double idle_yield_factor = 0.35;
  /// Fork/join region cost, active policy: base + per-thread term.
  double region_active_base_us = 1.0;
  double region_active_per_thread_us = 0.02;
  /// Region cost, spin-then-sleep policy: base + per-thread + the fraction
  /// of workers that overslept the blocktime (x host sleep latency).
  double region_spin_base_us = 1.5;
  double region_spin_per_thread_us = 0.05;
  double region_spin_sleep_frac = 0.02;
  /// Region cost, passive policy: per-thread wake fan-out on top of the
  /// host sleep latency (the thundering herd).
  double region_passive_per_thread_us = 0.9;
  /// Shared-counter grab (dynamic/guided chunk handout).
  double chunk_grab_us = 0.15;
  /// Reduction combining-hop cost: base + extra on >2-NUMA machines.
  double reduction_hop_base_us = 0.25;
  double reduction_hop_numa_us = 0.1;

  // ---- measured primitives (informative; 0 = not measured) ---------------
  double park_unpark_us = 0.0;        ///< futex park/unpark round-trip
  double condvar_roundtrip_us = 0.0;  ///< mutex+condvar equivalent
  double cas_contended_us = 0.0;      ///< CAS retry loop under contention
  double fetch_add_contended_us = 0.0;
  double lock_acquire_us = 0.0;  ///< uncontended mutex lock/unlock

  /// Barrier phase cost per variant x team size, keyed "central.t4",
  /// "dissemination.t16", ... (written by bench/micro_primitives).
  std::map<std::string, double> barrier_phase_us;

  /// The historical constants (identical to a default-constructed table).
  static CalibrationTable fallback() { return CalibrationTable{}; }

  /// Parse a serialized table. Throws std::runtime_error on a missing or
  /// foreign version line, malformed line, or unknown key.
  static CalibrationTable parse(const std::string& text);

  /// Load from a file. Throws std::runtime_error (unreadable file or any
  /// parse error).
  static CalibrationTable load(const std::string& path);

  /// Serialize; exact double round-trip. `save` replaces the file through
  /// util::atomic_write_file: on failure it throws util::StorageError and
  /// the previous table stays intact.
  std::string serialize() const;
  void save(const std::string& path) const;

  bool operator==(const CalibrationTable& other) const;
};

}  // namespace omptune::rt
