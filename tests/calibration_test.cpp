// CalibrationTable tests: the fallback table must reproduce the historical
// perf-model constants bit-for-bit (default model == fallback model ==
// checked-in docs/calibration/fallback.cal), serialization must round-trip
// exactly, foreign/corrupt tables must be rejected loudly, and a failed
// save must leave the previous table intact.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/all_apps.hpp"
#include "arch/cpu_arch.hpp"
#include "rt/calibration.hpp"
#include "rt/config.hpp"
#include "sim/perf_model.hpp"
#include "util/errors.hpp"
#include "util/io_hooks.hpp"

#ifndef OMPTUNE_REPO_DIR
#define OMPTUNE_REPO_DIR "."
#endif

namespace omptune {
namespace {

using arch::ArchId;
using arch::architecture;

const char* kFallbackPath = OMPTUNE_REPO_DIR "/docs/calibration/fallback.cal";

TEST(CalibrationTable, DefaultEqualsFallback) {
  EXPECT_TRUE(rt::CalibrationTable{} == rt::CalibrationTable::fallback());
}

TEST(CalibrationTable, SerializeRoundTripsExactly) {
  rt::CalibrationTable table = rt::CalibrationTable::fallback();
  table.park_unpark_us = 2.718281828459045;
  table.barrier_phase_us["dissemination.t16"] = 0.1 + 0.2;  // non-exact sum
  const rt::CalibrationTable parsed =
      rt::CalibrationTable::parse(table.serialize());
  EXPECT_TRUE(parsed == table);
}

TEST(CalibrationTable, CheckedInFallbackMatchesBuiltin) {
  const rt::CalibrationTable loaded = rt::CalibrationTable::load(kFallbackPath);
  EXPECT_TRUE(loaded == rt::CalibrationTable::fallback())
      << "docs/calibration/fallback.cal has drifted from the built-in "
         "constants; regenerate it from CalibrationTable::fallback()";
}

TEST(CalibrationTable, RejectsForeignVersionUnknownKeyAndGarbage) {
  EXPECT_THROW(rt::CalibrationTable::parse("omptune-calibration v2\n"),
               std::runtime_error);
  EXPECT_THROW(rt::CalibrationTable::parse("chunk_grab_us=1\n"),
               std::runtime_error);  // missing version line
  EXPECT_THROW(rt::CalibrationTable::parse(
                   "omptune-calibration v1\nno_such_key=1\n"),
               std::runtime_error);
  EXPECT_THROW(rt::CalibrationTable::parse(
                   "omptune-calibration v1\nchunk_grab_us=abc\n"),
               std::runtime_error);
  EXPECT_THROW(rt::CalibrationTable::parse(
                   "omptune-calibration v1\nchunk_grab_us\n"),
               std::runtime_error);
  EXPECT_THROW(rt::CalibrationTable::load("/no/such/file.cal"),
               std::runtime_error);
}

TEST(CalibrationTable, CommentsAndBlankLinesAreIgnored) {
  const rt::CalibrationTable parsed = rt::CalibrationTable::parse(
      "# header comment\n\nomptune-calibration v1\n# mid comment\n"
      "chunk_grab_us=0.5\n\nbarrier.central.t2=1.25\n");
  EXPECT_DOUBLE_EQ(parsed.chunk_grab_us, 0.5);
  EXPECT_DOUBLE_EQ(parsed.barrier_phase_us.at("central.t2"), 1.25);
}

// ---------------------------------------------------------------------------
// Bit-compatibility: a PerfModel built from the fallback table (built-in or
// loaded from the checked-in file) predicts exactly what the default model
// predicts, across a grid of apps x archs x configs.
// ---------------------------------------------------------------------------

std::vector<rt::RtConfig> config_grid(const arch::CpuArch& cpu) {
  std::vector<rt::RtConfig> grid;
  for (const rt::WaitPolicy policy :
       {rt::WaitPolicy::Active, rt::WaitPolicy::SpinThenSleep,
        rt::WaitPolicy::Passive}) {
    for (const rt::ScheduleKind schedule :
         {rt::ScheduleKind::Static, rt::ScheduleKind::Dynamic,
          rt::ScheduleKind::Guided}) {
      rt::RtConfig config = rt::RtConfig::defaults_for(cpu);
      config.schedule = schedule;
      switch (policy) {
        case rt::WaitPolicy::Active:
          config.blocktime_ms = rt::kBlocktimeInfinite;
          break;
        case rt::WaitPolicy::SpinThenSleep:
          config.blocktime_ms = 200;
          break;
        case rt::WaitPolicy::Passive:
          config.blocktime_ms = 0;
          break;
      }
      grid.push_back(config);
    }
  }
  return grid;
}

TEST(CalibrationTable, FallbackModelIsBitCompatible) {
  const sim::PerfModel plain;
  const sim::PerfModel from_builtin(rt::CalibrationTable::fallback());
  const sim::PerfModel from_file(rt::CalibrationTable::load(kFallbackPath));

  int compared = 0;
  for (const char* app_name : {"cg", "nqueens", "xsbench", "lulesh"}) {
    const auto& app = apps::find_application(app_name);
    const auto input = app.default_input();
    for (const ArchId arch_id : {ArchId::Skylake, ArchId::Milan, ArchId::A64FX}) {
      const auto& cpu = architecture(arch_id);
      for (const rt::RtConfig& config : config_grid(cpu)) {
        const double expected = plain.predict(app, input, cpu, config);
        EXPECT_EQ(from_builtin.predict(app, input, cpu, config), expected);
        EXPECT_EQ(from_file.predict(app, input, cpu, config), expected);
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 100);
}

TEST(CalibrationTable, MeasuredTableActuallyChangesPredictions) {
  rt::CalibrationTable table = rt::CalibrationTable::fallback();
  table.region_passive_per_thread_us *= 4.0;
  const sim::PerfModel plain;
  const sim::PerfModel tuned(table);

  const auto& app = apps::find_application("cg");
  const auto& cpu = architecture(ArchId::Skylake);
  rt::RtConfig config = rt::RtConfig::defaults_for(cpu);
  config.blocktime_ms = 0;  // passive: the scaled term is live
  EXPECT_GT(tuned.predict(app, app.default_input(), cpu, config),
            plain.predict(app, app.default_input(), cpu, config));
}

/// Fails every write(2) with ENOSPC, as a full disk would.
class FullDisk : public util::IoHooks {
 public:
  int before(const util::IoSite& site) override {
    return site.op == util::IoOp::Write ? ENOSPC : 0;
  }
};

TEST(CalibrationTable, FailedSaveLeavesThePreviousTableIntact) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("omptune_test_calibration_" + std::to_string(::getpid()) + ".cal"))
          .string();
  rt::CalibrationTable previous = rt::CalibrationTable::fallback();
  previous.barrier_phase_us["central.t4"] = 1.25;
  previous.save(path);

  rt::CalibrationTable next = previous;
  next.region_passive_per_thread_us *= 2.0;
  {
    FullDisk full;
    util::ScopedIoHooks scope(&full);
    EXPECT_THROW(next.save(path), util::StorageError);
  }
  EXPECT_TRUE(rt::CalibrationTable::load(path) == previous);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace omptune
