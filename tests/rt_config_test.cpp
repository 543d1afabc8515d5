// Tests for the environment-variable surface: Section III of the paper,
// including every default-derivation rule it documents.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "arch/cpu_arch.hpp"
#include "rt/config.hpp"
#include "util/env.hpp"

namespace omptune::rt {
namespace {

using arch::ArchId;
using arch::architecture;
using util::ScopedEnv;

const char* kAllVars[] = {
    "OMP_NUM_THREADS", "OMP_PLACES",    "OMP_PROC_BIND",
    "OMP_SCHEDULE",    "OMP_WAIT_POLICY", "KMP_LIBRARY",
    "KMP_BLOCKTIME",   "KMP_FORCE_REDUCTION", "KMP_ALIGN_ALLOC",
};

/// Clears the whole variable surface for the duration of a test.
ScopedEnv clean_env() {
  std::vector<ScopedEnv::Assignment> assignments;
  for (const char* name : kAllVars) assignments.push_back({name, std::nullopt});
  return ScopedEnv(std::move(assignments));
}

TEST(RtConfigDefaults, MatchPaperSectionThree) {
  const auto env = clean_env();
  const auto& skylake = architecture(ArchId::Skylake);
  const RtConfig config = RtConfig::from_env(skylake);

  EXPECT_EQ(config.places, arch::PlacesKind::Unset);
  EXPECT_EQ(config.bind, arch::BindKind::Unset);
  EXPECT_EQ(config.effective_bind(), arch::BindKind::False_);
  EXPECT_EQ(config.schedule, ScheduleKind::Static);
  EXPECT_EQ(config.chunk, 0);
  EXPECT_EQ(config.library, LibraryMode::Throughput);
  EXPECT_EQ(config.blocktime_ms, 200);
  EXPECT_EQ(config.reduction, ReductionMethod::Default);
  EXPECT_EQ(config.effective_num_threads(skylake), 40);
  EXPECT_EQ(config.effective_align(skylake), 64);
}

TEST(RtConfigDefaults, AlignDefaultIsCachelinePerArchitecture) {
  const auto env = clean_env();
  EXPECT_EQ(RtConfig::from_env(architecture(ArchId::A64FX))
                .effective_align(architecture(ArchId::A64FX)),
            256);
  EXPECT_EQ(RtConfig::from_env(architecture(ArchId::Milan))
                .effective_align(architecture(ArchId::Milan)),
            64);
}

TEST(RtConfigDefaults, ProcBindDerivation) {
  // Paper III.2: unset bind == false, but if OMP_PLACES is set the default
  // becomes spread.
  RtConfig config;
  config.places = arch::PlacesKind::Unset;
  config.bind = arch::BindKind::Unset;
  EXPECT_EQ(config.effective_bind(), arch::BindKind::False_);

  config.places = arch::PlacesKind::Cores;
  EXPECT_EQ(config.effective_bind(), arch::BindKind::Spread);

  // An explicit bind always wins.
  config.bind = arch::BindKind::Master;
  EXPECT_EQ(config.effective_bind(), arch::BindKind::Master);
  config.places = arch::PlacesKind::Unset;
  EXPECT_EQ(config.effective_bind(), arch::BindKind::Master);
}

TEST(RtConfigEnv, ParsesEveryVariable) {
  const auto clean = clean_env();
  const ScopedEnv env({
      {"OMP_NUM_THREADS", "12"},
      {"OMP_PLACES", "ll_caches"},
      {"OMP_PROC_BIND", "spread"},
      {"OMP_SCHEDULE", "guided,8"},
      {"KMP_LIBRARY", "turnaround"},
      {"KMP_BLOCKTIME", "infinite"},
      {"KMP_FORCE_REDUCTION", "atomic"},
      {"KMP_ALIGN_ALLOC", "512"},
  });
  const RtConfig config = RtConfig::from_env(architecture(ArchId::Milan));
  EXPECT_EQ(config.num_threads, 12);
  EXPECT_EQ(config.places, arch::PlacesKind::LLCaches);
  EXPECT_EQ(config.bind, arch::BindKind::Spread);
  EXPECT_EQ(config.schedule, ScheduleKind::Guided);
  EXPECT_EQ(config.chunk, 8);
  EXPECT_EQ(config.library, LibraryMode::Turnaround);
  EXPECT_EQ(config.blocktime_ms, kBlocktimeInfinite);
  EXPECT_EQ(config.reduction, ReductionMethod::Atomic);
  EXPECT_EQ(config.align_alloc, 512);
}

TEST(RtConfigEnv, CaseInsensitiveValues) {
  const auto clean = clean_env();
  const ScopedEnv env({{"KMP_LIBRARY", "TurnAround"},
                       {"OMP_SCHEDULE", "DYNAMIC"},
                       {"KMP_BLOCKTIME", "Infinite"}});
  const RtConfig config = RtConfig::from_env(architecture(ArchId::A64FX));
  EXPECT_EQ(config.library, LibraryMode::Turnaround);
  EXPECT_EQ(config.schedule, ScheduleKind::Dynamic);
  EXPECT_EQ(config.blocktime_ms, kBlocktimeInfinite);
}

TEST(RtConfigEnv, RejectsMalformedValues) {
  const auto clean = clean_env();
  const auto& cpu = architecture(ArchId::Skylake);
  {
    const ScopedEnv env({{"OMP_NUM_THREADS", "zero"}});
    EXPECT_THROW(RtConfig::from_env(cpu), std::invalid_argument);
  }
  {
    const ScopedEnv env({{"OMP_NUM_THREADS", "-3"}});
    EXPECT_THROW(RtConfig::from_env(cpu), std::invalid_argument);
  }
  {
    const ScopedEnv env({{"OMP_SCHEDULE", "static,0"}});
    EXPECT_THROW(RtConfig::from_env(cpu), std::invalid_argument);
  }
  {
    const ScopedEnv env({{"OMP_SCHEDULE", "fifo"}});
    EXPECT_THROW(RtConfig::from_env(cpu), std::invalid_argument);
  }
  {
    const ScopedEnv env({{"KMP_BLOCKTIME", "-1"}});
    EXPECT_THROW(RtConfig::from_env(cpu), std::invalid_argument);
  }
  {
    const ScopedEnv env({{"KMP_BLOCKTIME", "99999999999999"}});
    EXPECT_THROW(RtConfig::from_env(cpu), std::invalid_argument);
  }
  {
    const ScopedEnv env({{"KMP_ALIGN_ALLOC", "48"}});  // not a power of two
    EXPECT_THROW(RtConfig::from_env(cpu), std::invalid_argument);
  }
  {
    const ScopedEnv env({{"KMP_FORCE_REDUCTION", "vectorized"}});
    EXPECT_THROW(RtConfig::from_env(cpu), std::invalid_argument);
  }
  {
    const ScopedEnv env({{"OMP_PLACES", "everywhere"}});
    EXPECT_THROW(RtConfig::from_env(cpu), std::invalid_argument);
  }
}

TEST(RtConfigWaitPolicy, DerivedFromBlocktimeAndLibrary) {
  // Paper Section III: OMP_WAIT_POLICY behaviour derives from KMP_BLOCKTIME
  // and KMP_LIBRARY.
  RtConfig config;
  config.library = LibraryMode::Throughput;
  config.blocktime_ms = 200;
  EXPECT_EQ(config.wait_policy(), WaitPolicy::SpinThenSleep);

  config.blocktime_ms = 0;
  EXPECT_EQ(config.wait_policy(), WaitPolicy::Passive);

  config.blocktime_ms = kBlocktimeInfinite;
  EXPECT_EQ(config.wait_policy(), WaitPolicy::Active);

  config.library = LibraryMode::Turnaround;
  config.blocktime_ms = 0;  // turnaround overrides: always active
  EXPECT_EQ(config.wait_policy(), WaitPolicy::Active);
}

TEST(RtConfigWaitPolicy, OmpWaitPolicyAliasesTheKmpPair) {
  const auto clean = clean_env();
  const auto& cpu = architecture(ArchId::Skylake);
  {
    const ScopedEnv env({{"OMP_WAIT_POLICY", "active"}});
    EXPECT_EQ(RtConfig::from_env(cpu).blocktime_ms, kBlocktimeInfinite);
    EXPECT_EQ(RtConfig::from_env(cpu).wait_policy(), WaitPolicy::Active);
  }
  {
    const ScopedEnv env({{"OMP_WAIT_POLICY", "PASSIVE"}});
    EXPECT_EQ(RtConfig::from_env(cpu).blocktime_ms, 0);
    EXPECT_EQ(RtConfig::from_env(cpu).wait_policy(), WaitPolicy::Passive);
  }
  {
    // The implementation-defined variables win over the alias — the reason
    // the paper sweeps KMP_* directly.
    const ScopedEnv env({{"OMP_WAIT_POLICY", "active"}, {"KMP_BLOCKTIME", "200"}});
    EXPECT_EQ(RtConfig::from_env(cpu).blocktime_ms, 200);
  }
  {
    const ScopedEnv env({{"OMP_WAIT_POLICY", "sometimes"}});
    EXPECT_THROW(RtConfig::from_env(cpu), std::invalid_argument);
  }
}

TEST(RtConfigReduction, HeuristicMatchesPaper) {
  // Paper III.6: 1 thread -> special path (no sync), 2..4 -> critical,
  // more -> tree.
  RtConfig config;  // reduction Default
  EXPECT_EQ(config.reduction_method_for(1), ReductionMethod::Tree);
  EXPECT_EQ(config.reduction_method_for(2), ReductionMethod::Critical);
  EXPECT_EQ(config.reduction_method_for(4), ReductionMethod::Critical);
  EXPECT_EQ(config.reduction_method_for(5), ReductionMethod::Tree);
  EXPECT_EQ(config.reduction_method_for(96), ReductionMethod::Tree);

  config.reduction = ReductionMethod::Atomic;
  EXPECT_EQ(config.reduction_method_for(96), ReductionMethod::Atomic);
  EXPECT_EQ(config.reduction_method_for(2), ReductionMethod::Atomic);

  EXPECT_THROW(config.reduction_method_for(0), std::invalid_argument);
}

TEST(RtConfigEnvExport, RoundTripsThroughProcessEnvironment) {
  const auto clean = clean_env();
  const auto& cpu = architecture(ArchId::Milan);

  RtConfig config;
  config.num_threads = 24;
  config.places = arch::PlacesKind::Sockets;
  config.bind = arch::BindKind::Close;
  config.schedule = ScheduleKind::Dynamic;
  config.chunk = 16;
  config.library = LibraryMode::Turnaround;
  config.blocktime_ms = 0;
  config.reduction = ReductionMethod::Tree;
  config.align_alloc = 128;

  const ScopedEnv env(config.to_env(cpu));
  const RtConfig parsed = RtConfig::from_env(cpu);
  EXPECT_EQ(parsed, config);
}

TEST(RtConfigEnvExport, DefaultsExportAsUnset) {
  const auto clean = clean_env();
  const auto& cpu = architecture(ArchId::Skylake);
  const RtConfig config = RtConfig::defaults_for(cpu);
  {
    const ScopedEnv env(config.to_env(cpu));
    EXPECT_FALSE(util::get_env("OMP_NUM_THREADS").has_value());
    EXPECT_FALSE(util::get_env("OMP_PLACES").has_value());
    EXPECT_FALSE(util::get_env("OMP_PROC_BIND").has_value());
    EXPECT_FALSE(util::get_env("KMP_FORCE_REDUCTION").has_value());
    EXPECT_EQ(util::get_env("KMP_LIBRARY"), "throughput");
    EXPECT_EQ(util::get_env("KMP_BLOCKTIME"), "200");
  }
}

TEST(RtConfigKey, DistinctConfigsHaveDistinctKeys) {
  RtConfig a, b;
  b.schedule = ScheduleKind::Guided;
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.blocktime_ms = kBlocktimeInfinite;
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key().find("blocktime=200"), std::string::npos);
  EXPECT_NE(b.key().find("blocktime=infinite"), std::string::npos);
}

TEST(RtConfigKey, SpellingIsPinned) {
  // Keys seed every setting's RNG and identify every stored sample, so a
  // changed byte changes every dataset and journal.
  RtConfig full;
  full.num_threads = 48;
  full.places = arch::PlacesKind::Cores;
  full.bind = arch::BindKind::Close;
  full.schedule = ScheduleKind::Dynamic;
  full.chunk = 4;
  full.library = LibraryMode::Turnaround;
  full.blocktime_ms = kBlocktimeInfinite;
  full.reduction = ReductionMethod::Tree;
  full.align_alloc = 128;
  full.barrier = BarrierKind::Hybrid;
  EXPECT_EQ(full.key(),
            "threads=48;places=cores;bind=close;schedule=dynamic,4;"
            "library=turnaround;blocktime=infinite;reduction=tree;align=128;"
            "barrier=hybrid");
  RtConfig unset;
  unset.num_threads = -1;
  unset.blocktime_ms = 0;
  unset.align_alloc = -5;
  EXPECT_EQ(unset.key(),
            "threads=default;places=unset;bind=unset;schedule=static;"
            "library=throughput;blocktime=0;reduction=unset;align=default");
}

TEST(RtConfigBarrier, ParsesKmpBarrierPattern) {
  const auto clean = clean_env();
  const auto& cpu = architecture(ArchId::Skylake);
  EXPECT_EQ(RtConfig::from_env(cpu).barrier, BarrierKind::Auto);
  {
    const ScopedEnv env({{"KMP_BARRIER_PATTERN", "dissemination"}});
    EXPECT_EQ(RtConfig::from_env(cpu).barrier, BarrierKind::Dissemination);
  }
  {
    // libomp spells the flat barrier "hyper"-adjacent aliases; we accept
    // "flat" and "linear" as synonyms of hybrid/central respectively.
    const ScopedEnv env({{"KMP_BARRIER_PATTERN", "flat"}});
    EXPECT_EQ(RtConfig::from_env(cpu).barrier, BarrierKind::Hybrid);
  }
  {
    const ScopedEnv env({{"KMP_BARRIER_PATTERN", "linear"}});
    EXPECT_EQ(RtConfig::from_env(cpu).barrier, BarrierKind::Central);
  }
  {
    const ScopedEnv env({{"KMP_BARRIER_PATTERN", "hypercube"}});
    EXPECT_THROW(RtConfig::from_env(cpu), std::invalid_argument);
  }
}

TEST(RtConfigBarrier, ExportsAndKeysOnlyNonAutoChoice) {
  const auto& cpu = architecture(ArchId::Skylake);
  RtConfig config = RtConfig::defaults_for(cpu);

  // Auto is the derived default: exported as an explicit *unset* (so a
  // child inherits nothing stale) and invisible in the sweep key, keeping
  // pre-catalogue keys stable.
  const auto pattern_of = [](const std::vector<util::ScopedEnv::Assignment>&
                                 exported) {
    for (const auto& assignment : exported) {
      if (assignment.name == "KMP_BARRIER_PATTERN") return assignment.value;
    }
    ADD_FAILURE() << "KMP_BARRIER_PATTERN not in to_env output";
    return std::optional<std::string>{};
  };
  EXPECT_EQ(pattern_of(config.to_env(cpu)), std::nullopt);
  EXPECT_EQ(config.key().find("barrier="), std::string::npos);

  config.barrier = BarrierKind::Tree;
  EXPECT_EQ(pattern_of(config.to_env(cpu)), "tree");
  EXPECT_NE(config.key().find("barrier=tree"), std::string::npos);

  RtConfig other = RtConfig::defaults_for(cpu);
  other.barrier = BarrierKind::Dissemination;
  EXPECT_NE(config.key(), other.key());
}

TEST(EnumStrings, RoundTrips) {
  for (const ScheduleKind kind : {ScheduleKind::Static, ScheduleKind::Dynamic,
                                  ScheduleKind::Guided, ScheduleKind::Auto}) {
    EXPECT_EQ(schedule_from_string(to_string(kind)), kind);
  }
  for (const LibraryMode mode :
       {LibraryMode::Serial, LibraryMode::Throughput, LibraryMode::Turnaround}) {
    EXPECT_EQ(library_from_string(to_string(mode)), mode);
  }
  for (const ReductionMethod method :
       {ReductionMethod::Default, ReductionMethod::Tree,
        ReductionMethod::Critical, ReductionMethod::Atomic}) {
    EXPECT_EQ(reduction_from_string(to_string(method)), method);
  }
  for (const BarrierKind kind :
       {BarrierKind::Auto, BarrierKind::Central, BarrierKind::Tree,
        BarrierKind::Dissemination, BarrierKind::Hybrid}) {
    EXPECT_EQ(barrier_from_string(to_string(kind)), kind);
  }
}

}  // namespace
}  // namespace omptune::rt
