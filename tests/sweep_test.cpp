// Sweep harness tests: the configuration space of Section III, the study
// plan of Table II, speedup enrichment, and dataset CSV round-tripping.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <sstream>

#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "sweep/config_space.hpp"
#include "sweep/dataset.hpp"
#include "sweep/harness.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace omptune::sweep {
namespace {

using arch::ArchId;
using arch::architecture;

TEST(ConfigSpace, PaperSizes) {
  // X86: 4 places x 6 binds x 4 schedules x 2 libraries x 3 blocktimes x
  // 4 reductions x 4 aligns = 9216. A64FX has 2 aligns: 4608.
  EXPECT_EQ(ConfigSpace::paper_space(architecture(ArchId::Skylake)).size(), 9216u);
  EXPECT_EQ(ConfigSpace::paper_space(architecture(ArchId::Milan)).size(), 9216u);
  EXPECT_EQ(ConfigSpace::paper_space(architecture(ArchId::A64FX)).size(), 4608u);
}

TEST(ConfigSpace, A64fxAlignSetRespectsCacheline) {
  const auto space = ConfigSpace::paper_space(architecture(ArchId::A64FX));
  EXPECT_EQ(space.aligns, (std::vector<int>{256, 512}));
  const auto x86 = ConfigSpace::paper_space(architecture(ArchId::Skylake));
  EXPECT_EQ(x86.aligns, (std::vector<int>{64, 128, 256, 512}));
}

TEST(ConfigSpace, EnumerationIsExhaustiveAndUnique) {
  const auto space = ConfigSpace::paper_space(architecture(ArchId::A64FX));
  const auto configs = space.enumerate(0);
  EXPECT_EQ(configs.size(), space.size());
  std::set<std::string> keys;
  for (const auto& c : configs) keys.insert(c.key());
  EXPECT_EQ(keys.size(), configs.size());
}

TEST(ConfigSpace, SampleIsDeterministicAndAnchorsDefault) {
  const auto space = ConfigSpace::paper_space(architecture(ArchId::Milan));
  const auto a = space.sample(0, 500, 99);
  const auto b = space.sample(0, 500, 99);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_EQ(a, b);
  // Front element is the default configuration with the explicit
  // cache-line alignment.
  EXPECT_EQ(a.front().places, arch::PlacesKind::Unset);
  EXPECT_EQ(a.front().bind, arch::BindKind::Unset);
  EXPECT_EQ(a.front().schedule, rt::ScheduleKind::Static);
  EXPECT_EQ(a.front().library, rt::LibraryMode::Throughput);
  EXPECT_EQ(a.front().blocktime_ms, 200);
  EXPECT_EQ(a.front().reduction, rt::ReductionMethod::Default);
  EXPECT_EQ(a.front().align_alloc, 64);
  // Different seeds give different subsets.
  const auto c = space.sample(0, 500, 100);
  EXPECT_NE(a, c);
  EXPECT_EQ(c.front(), a.front());  // but the anchor is identical
}

TEST(ConfigSpace, SampleClampsToSpaceSize) {
  const auto space = ConfigSpace::paper_space(architecture(ArchId::A64FX));
  const auto all = space.sample(0, 1 << 20, 7);
  EXPECT_EQ(all.size(), space.size());
  std::set<std::string> keys;
  for (const auto& config : all) keys.insert(config.key());
  EXPECT_EQ(keys.size(), all.size());  // a permutation, not a resample
}

TEST(ThreadSweep, QuarterStepsOfTheMachine) {
  EXPECT_EQ(thread_sweep(architecture(ArchId::Skylake)),
            (std::vector<int>{10, 20, 30, 40}));
  EXPECT_EQ(thread_sweep(architecture(ArchId::Milan)),
            (std::vector<int>{24, 48, 72, 96}));
  EXPECT_EQ(thread_sweep(architecture(ArchId::A64FX)),
            (std::vector<int>{12, 24, 36, 48}));
}

TEST(StudyPlan, TableTwoSampleTotals) {
  const StudyPlan plan = StudyPlan::paper_plan();
  ASSERT_EQ(plan.arch_plans.size(), 3u);

  std::size_t total = 0;
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    total += arch_plan.total_samples();
    std::set<std::string> app_names;
    for (const StudySetting& s : arch_plan.settings) {
      app_names.insert(s.app->name());
    }
    switch (arch_plan.arch) {
      case ArchId::A64FX:
        EXPECT_EQ(arch_plan.total_samples(), 53822u);
        EXPECT_EQ(app_names.size(), 15u);  // Table II: 15 applications
        break;
      case ArchId::Milan:
        EXPECT_EQ(arch_plan.total_samples(), 99707u);
        EXPECT_EQ(app_names.size(), 13u);
        EXPECT_EQ(app_names.count("sort"), 0u);
        EXPECT_EQ(app_names.count("strassen"), 0u);
        break;
      case ArchId::Skylake:
        EXPECT_EQ(arch_plan.total_samples(), 90230u);
        EXPECT_EQ(app_names.size(), 12u);
        break;
    }
  }
  EXPECT_EQ(total, 243759u);  // the paper's "over 240,000 unique samples"
}

TEST(StudyPlan, SettingsFollowSweepModes) {
  const StudyPlan plan = StudyPlan::paper_plan();
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    for (const StudySetting& s : arch_plan.settings) {
      if (s.app->sweep_mode() == apps::SweepMode::VaryInputSize) {
        EXPECT_EQ(s.num_threads, 0) << s.app->name();
      } else {
        EXPECT_GT(s.num_threads, 0) << s.app->name();
      }
    }
  }
}

TEST(SweepHarness, SettingProducesEnrichedSamples) {
  sim::ModelRunner runner;
  SweepHarness harness(runner, /*repetitions=*/3, /*seed=*/11);
  const auto& cpu = architecture(ArchId::Milan);
  StudySetting setting{&apps::find_application("xsbench"),
                       apps::find_application("xsbench").default_input(), 48};
  const Dataset dataset = harness.run_setting(cpu, setting, 200);
  ASSERT_EQ(dataset.size(), 200u);

  const Sample& first = dataset.samples().front();
  EXPECT_TRUE(first.is_default);
  EXPECT_DOUBLE_EQ(first.speedup, 1.0);
  EXPECT_EQ(first.threads, 48);

  int better = 0;
  for (const Sample& s : dataset.samples()) {
    ASSERT_EQ(s.runtimes.size(), 3u);
    EXPECT_GT(s.mean_runtime, 0.0);
    EXPECT_DOUBLE_EQ(s.default_runtime, first.mean_runtime);
    // The batch is published: speedup is the full-precision ratio rounded
    // to 6 decimals, and the means it was taken from are then rounded to 9.
    EXPECT_EQ(s.speedup, util::round_fixed_double(s.speedup, 6));
    const double ratio = s.default_runtime / s.mean_runtime;
    const double rounding =
        5e-7 + ratio * (5e-10 / s.default_runtime + 5e-10 / s.mean_runtime);
    EXPECT_NEAR(s.speedup, ratio, 1.001 * rounding);
    if (s.speedup > 1.01) ++better;
  }
  // XSBench on Milan has substantial tuning headroom.
  EXPECT_GT(better, 10);
}

TEST(SweepHarness, DeterministicAcrossRuns) {
  sim::ModelRunner runner_a, runner_b;
  SweepHarness a(runner_a, 2, 5), b(runner_b, 2, 5);
  const auto& cpu = architecture(ArchId::Skylake);
  StudySetting setting{&apps::find_application("cg"),
                       apps::find_application("cg").input_sizes().front(), 0};
  const Dataset da = a.run_setting(cpu, setting, 50);
  const Dataset db = b.run_setting(cpu, setting, 50);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da.samples()[i].runtimes, db.samples()[i].runtimes);
  }
}

TEST(SweepHarness, RejectsNonPositiveRepetitions) {
  sim::ModelRunner runner;
  EXPECT_THROW(SweepHarness(runner, 0), std::invalid_argument);
}

TEST(SweepHarness, MiniStudyRunsAllArchitectures) {
  sim::ModelRunner runner;
  SweepHarness harness(runner, 2);
  const Dataset dataset =
      harness.run_study(StudyPlan::mini_plan(/*apps=*/2, /*configs=*/30));
  EXPECT_EQ(dataset.size(), 3u * 2u * 30u);
  const auto archs = dataset.distinct([](const Sample& s) { return s.arch; });
  EXPECT_EQ(archs.size(), 3u);
}

TEST(Dataset, CsvRoundTrip) {
  sim::ModelRunner runner;
  SweepHarness harness(runner, 2);
  const auto& cpu = architecture(ArchId::A64FX);
  StudySetting setting{&apps::find_application("nqueens"),
                       apps::find_application("nqueens").input_sizes().front(), 0};
  const Dataset dataset = harness.run_setting(cpu, setting, 40);

  std::ostringstream os;
  dataset.to_csv().write(os);
  std::istringstream is(os.str());
  const Dataset parsed = Dataset::from_csv(util::CsvTable::read(is));

  ASSERT_EQ(parsed.size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const Sample& a = dataset.samples()[i];
    const Sample& b = parsed.samples()[i];
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_EQ(a.app, b.app);
    // The CSV stores the resolved team size, so a default (0) thread count
    // normalizes to the explicit count on parse; compare resolved configs.
    rt::RtConfig resolved = a.config;
    resolved.num_threads = a.threads;
    EXPECT_EQ(resolved.key(), b.config.key());
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_NEAR(a.speedup, b.speedup, 1e-5);
    EXPECT_EQ(a.is_default, b.is_default);
    ASSERT_EQ(a.runtimes.size(), b.runtimes.size());
    for (std::size_t r = 0; r < a.runtimes.size(); ++r) {
      EXPECT_NEAR(a.runtimes[r], b.runtimes[r], 1e-7);
    }
  }
}

TEST(Dataset, AppendGrowsGeometrically) {
  // Appending one batch per setting is how run_study, the supervisor and
  // the compactor assemble a dataset. Each reallocation moves every sample
  // collected so far, so their number must stay logarithmic in the size.
  constexpr int kBatches = 10000;
  Dataset dataset;
  const Sample* buffer = nullptr;
  int buffers = 0;
  for (int i = 0; i < kBatches; ++i) {
    Dataset batch;
    Sample s;
    s.threads = i;
    batch.add(std::move(s));
    dataset.append(std::move(batch));
    if (dataset.samples().data() != buffer) {
      buffer = dataset.samples().data();
      ++buffers;
    }
  }
  ASSERT_EQ(dataset.size(), static_cast<std::size_t>(kBatches));
  EXPECT_LE(buffers, 40);
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_EQ(dataset.samples()[static_cast<std::size_t>(i)].threads, i);
  }
}

/// What a StoreBuilder resolving duplicates keeps of `samples`, read back
/// from its image, with the builder's dedupe tally in `report`.
Dataset resolved(const std::vector<Sample>& samples, DedupeReport* report) {
  store::StoreBuilder builder(store::StoreBuilder::Duplicates::Resolve);
  for (const Sample& sample : samples) builder.add(sample);
  *report = builder.dedupe();
  return store::StoreReader(
             util::MappedFile("<resolved>", std::move(builder).finish()))
      .load();
}

TEST(Dataset, DedupeKeepsFirstAppearanceAndBestStatus) {
  Sample a;
  a.arch = "milan";
  a.app = "cg";
  a.runtimes = {1.0};
  Sample b = a;
  b.app = "ep";
  b.status = SampleStatus::Quarantined;
  Sample a_again = a;  // equal status: the first occurrence stays
  a_again.runtimes = {2.0};
  Sample b_clean = b;  // better status: replaces b in b's slot
  b_clean.status = SampleStatus::Retried;

  DedupeReport report;
  const Dataset kept = resolved({a, a_again, b, b_clean}, &report);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept.samples()[0].app, "cg");
  EXPECT_EQ(kept.samples()[0].runtimes, std::vector<double>{1.0});
  EXPECT_EQ(kept.samples()[1].app, "ep");
  EXPECT_EQ(kept.samples()[1].status, SampleStatus::Retried);
  EXPECT_EQ(report.duplicates, 2u);
  EXPECT_EQ(report.replaced, 1u);
}

TEST(Dataset, DedupeKeepsNamesThatOnlyDifferWhereTheSlashFalls) {
  // sample_identity() joins with '/', so both rows spell "x/y/z/..."; they
  // are different measurements and must both survive.
  Sample left;
  left.arch = "x/y";
  left.app = "z";
  Sample right = left;
  right.arch = "x";
  right.app = "y/z";
  ASSERT_EQ(sample_identity(left), sample_identity(right));
  EXPECT_FALSE(SampleKey(left) == SampleKey(right));

  DedupeReport report;
  const Dataset kept = resolved({left, right, left}, &report);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept.samples()[0].arch, "x/y");
  EXPECT_EQ(kept.samples()[1].arch, "x");
  EXPECT_EQ(report.duplicates, 1u);
}

TEST(Dataset, SampleKeyEqualityMatchesIdentityEquality) {
  // Rows drawn from small value sets so that collisions are common, with
  // the fields RtConfig::key() normalises (<= 0 num_threads, chunk and
  // align all mean "default"; Auto barrier is left out of the key).
  util::Xoshiro256 rng(0x5A3BEEULL);
  const auto pick = [&rng](auto... values) {
    const std::array options{values...};
    return options[rng.uniform_index(options.size())];
  };
  Sample base;
  base.app = "cg";
  base.input = "S";
  std::vector<Sample> rows;
  for (int i = 0; i < 400; ++i) {
    Sample s = base;
    s.arch = pick(std::string("milan"), std::string("a64fx"));
    s.threads = pick(4, -1);
    s.config.num_threads = pick(-2, 0, 4, 8);
    s.config.chunk = pick(-1, 0, 1, 16);
    s.config.align_alloc = pick(-64, 0, 64);
    s.config.places = pick(arch::PlacesKind::Unset, arch::PlacesKind::Cores);
    s.config.bind = pick(arch::BindKind::Unset, arch::BindKind::Spread);
    s.config.schedule = pick(rt::ScheduleKind::Static, rt::ScheduleKind::Guided);
    s.config.library = pick(rt::LibraryMode::Throughput, rt::LibraryMode::Turnaround);
    s.config.blocktime_ms =
        pick(std::int64_t{0}, std::int64_t{200}, rt::kBlocktimeInfinite);
    s.config.reduction =
        pick(rt::ReductionMethod::Default, rt::ReductionMethod::Atomic);
    s.config.barrier = pick(rt::BarrierKind::Auto, rt::BarrierKind::Central);
    rows.push_back(std::move(s));
  }
  std::size_t equal_pairs = 0;
  for (const Sample& a : rows) {
    for (const Sample& b : rows) {
      const bool same_identity = sample_identity(a) == sample_identity(b);
      ASSERT_EQ(SampleKey(a) == SampleKey(b), same_identity)
          << sample_identity(a) << " vs " << sample_identity(b);
      if (same_identity) {
        EXPECT_EQ(SampleKey(a).hash(), SampleKey(b).hash());
        equal_pairs += &a != &b;
      }
    }
  }
  EXPECT_GT(equal_pairs, 0u);  // the fuzz must exercise collisions
}

TEST(Dataset, FilterAndDistinct) {
  Dataset dataset;
  Sample s;
  s.arch = "milan";
  s.app = "cg";
  s.speedup = 1.2;
  dataset.add(s);
  s.arch = "a64fx";
  s.speedup = 0.9;
  dataset.add(s);
  const Dataset milan_only =
      dataset.filter([](const Sample& x) { return x.arch == "milan"; });
  EXPECT_EQ(milan_only.size(), 1u);
  EXPECT_EQ(dataset.distinct([](const Sample& x) { return x.arch; }),
            (std::vector<std::string>{"milan", "a64fx"}));
}

}  // namespace
}  // namespace omptune::sweep
