#include "arch/cpu_arch.hpp"

#include <stdexcept>

namespace omptune::arch {

std::string to_string(ArchId id) {
  switch (id) {
    case ArchId::A64FX: return "a64fx";
    case ArchId::Skylake: return "skylake";
    case ArchId::Milan: return "milan";
  }
  throw std::invalid_argument("to_string: bad ArchId");
}

ArchId arch_from_string(const std::string& name) {
  if (name == "a64fx") return ArchId::A64FX;
  if (name == "skylake") return ArchId::Skylake;
  if (name == "milan") return ArchId::Milan;
  throw std::invalid_argument("arch_from_string: unknown architecture '" + name + "'");
}

const std::vector<CpuArch>& all_architectures() {
  // Table I of the paper, plus model parameters:
  //  - A64FX: 48 cores in 4 CMGs (Core Memory Groups), HBM2 ~1 TB/s,
  //    256 B cache lines, SVE-512. Single-user Ookami nodes measure with
  //    very low noise (Table III: all p-values high).
  //  - Skylake 6148: 2 sockets x 20 cores, 6-channel DDR4 ~256 GB/s,
  //    AVX-512. Shared SeaWulf cluster: noisy (Table III: low p-values).
  //  - Milan 7643: 2 sockets x 48 cores, 8 NUMA nodes (NPS4), 16 CCXs with
  //    32 MB L3 each, ~410 GB/s DDR4. Also noisy.
  static const std::vector<CpuArch> archs = [] {
    std::vector<CpuArch> v;

    CpuArch a64fx;
    a64fx.id = ArchId::A64FX;
    a64fx.name = "a64fx";
    a64fx.description = "Fujitsu A64FX";
    a64fx.cores = 48;
    a64fx.sockets = 1;
    a64fx.numa_nodes = 4;
    a64fx.clock_ghz = 1.8;
    a64fx.memory_type = "HBM";
    a64fx.memory_gb = 32;
    a64fx.cacheline_bytes = 256;
    a64fx.ll_caches = 4;  // one L2 per CMG acts as LLC
    a64fx.mem_bw_gbs = 1024.0;
    a64fx.numa_remote_penalty = 1.35;  // HBM keeps remote penalty moderate
    a64fx.noise_sigma = 0.002;
    a64fx.repetition_drift = 0.0;
    a64fx.yield_latency_us = 32.0;  // 1.8 GHz in-order-ish core, slow syscall
    a64fx.sleep_latency_us = 90.0;
    a64fx.unbound_locality_loss = 0.04;  // CMG-local scheduling + HBM
    a64fx.bw_contention = 0.01;          // 1 TB/s is never saturated here
    a64fx.serial_mem_factor = 1.3;       // HBM2 latency
    v.push_back(a64fx);

    CpuArch skylake;
    skylake.id = ArchId::Skylake;
    skylake.name = "skylake";
    skylake.description = "Intel Xeon Gold 6148 (Skylake)";
    skylake.cores = 40;
    skylake.sockets = 2;
    skylake.numa_nodes = 2;
    skylake.clock_ghz = 2.4;
    skylake.memory_type = "DDR4";
    skylake.memory_gb = 188;
    skylake.cacheline_bytes = 64;
    skylake.ll_caches = 2;  // one shared L3 per socket
    skylake.mem_bw_gbs = 256.0;
    skylake.numa_remote_penalty = 1.7;
    skylake.noise_sigma = 0.028;
    skylake.repetition_drift = 0.012;
    skylake.yield_latency_us = 20.0;
    skylake.sleep_latency_us = 45.0;
    skylake.unbound_locality_loss = 0.015;  // 2 nodes, kernel NUMA balancing
    skylake.bw_contention = 0.03;
    skylake.serial_mem_factor = 1.0;
    v.push_back(skylake);

    CpuArch milan;
    milan.id = ArchId::Milan;
    milan.name = "milan";
    milan.description = "AMD EPYC 7643 (Milan)";
    milan.cores = 96;
    milan.sockets = 2;
    milan.numa_nodes = 8;
    milan.clock_ghz = 2.3;
    milan.memory_type = "DDR4";
    milan.memory_gb = 251;
    milan.cacheline_bytes = 64;
    milan.ll_caches = 16;  // one 32 MB L3 per 6-core CCX
    milan.mem_bw_gbs = 410.0;
    milan.numa_remote_penalty = 2.1;  // NPS4 + cross-socket is expensive
    milan.noise_sigma = 0.034;
    milan.repetition_drift = 0.02;
    milan.yield_latency_us = 12.0;
    milan.sleep_latency_us = 35.0;
    milan.unbound_locality_loss = 1.0;  // NPS4: 8 nodes, costly remote CCX hops
    milan.bw_contention = 0.65;         // directory/xGMI queueing when saturated
    milan.serial_mem_factor = 1.05;
    v.push_back(milan);

    return v;
  }();
  return archs;
}

const CpuArch& architecture(ArchId id) {
  for (const CpuArch& a : all_architectures()) {
    if (a.id == id) return a;
  }
  throw std::invalid_argument("architecture: bad ArchId");
}

}  // namespace omptune::arch
