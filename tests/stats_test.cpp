// Statistics library tests: descriptive stats against hand-computed values,
// the Wilcoxon signed-rank test against independently computed references
// (classic paired-data example + shift/no-shift cases), and KDE properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "stats/descriptive.hpp"
#include "stats/kde.hpp"
#include "stats/wilcoxon.hpp"
#include "util/rng.hpp"

namespace omptune::stats {
namespace {

TEST(Descriptive, MeanAndStddev) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  // Sample stddev with n-1: sqrt(32/7).
  EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(stddev({3.0}), 0.0);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Descriptive, WelfordMatchesTwoPassReference) {
  // mean_stddev is single-pass (Welford); it must agree with the naive
  // two-pass computation to 1e-12 even on ill-conditioned data (large
  // offset, tiny variance) where a sum-of-squares one-pass formula loses
  // every significant digit.
  util::Xoshiro256 rng(11);
  for (const double offset : {0.0, 1e9}) {
    std::vector<double> v(10000);
    for (double& x : v) x = offset + rng.uniform(0.999, 1.001);

    double two_pass_mean = 0;
    for (const double x : v) two_pass_mean += x;
    two_pass_mean /= static_cast<double>(v.size());
    double ss = 0;
    for (const double x : v) ss += (x - two_pass_mean) * (x - two_pass_mean);
    const double two_pass_stddev =
        std::sqrt(ss / static_cast<double>(v.size() - 1));

    const MeanStd got = mean_stddev(v.data(), v.size());
    EXPECT_NEAR(got.mean, two_pass_mean, 1e-12 * (1.0 + std::abs(offset)));
    // At offset 1e9 the two-pass reference itself loses digits to
    // cancellation in (x - mean); allow it that floor (~eps * offset).
    EXPECT_NEAR(got.stddev, two_pass_stddev,
                1e-12 + 1e-15 * std::abs(offset));
    EXPECT_DOUBLE_EQ(mean(v), got.mean);
    EXPECT_DOUBLE_EQ(stddev(v), got.stddev);
  }
  const MeanStd single = mean_stddev(std::vector<double>{3.0}.data(), 1);
  EXPECT_DOUBLE_EQ(single.mean, 3.0);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);
}

TEST(Descriptive, QuantilesInterpolate) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

/// The sort-based quantile that selection replaced, kept verbatim as the
/// reference.
double sorted_quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: empty input");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q out of [0,1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

TEST(Descriptive, SelectionQuantileMatchesSortedReference) {
  // Selection picks the same order statistics as the full sort, so every
  // quantile is equal under ==. Equal-comparing values are interchangeable
  // to both algorithms: with +0.0 and -0.0 present, either may surface a
  // zero of the other sign, and == treats the two as equal — which is why
  // the comparison is == rather than bitwise. NaN is out of contract for
  // both (no strict weak ordering), so inputs here are NaN-free.
  util::Xoshiro256 rng(2024);
  std::vector<std::vector<double>> inputs = {{1.5}, {2.0, -1.0}, {3.0, 1.0, 2.0}};
  for (const std::size_t n : {4u, 17u, 100u, 1001u}) {
    std::vector<double> random(n), duplicates(n);
    for (std::size_t i = 0; i < n; ++i) {
      random[i] = rng.uniform(-10.0, 10.0);
      duplicates[i] = static_cast<double>(rng.uniform_index(4)) * 0.5;
    }
    std::vector<double> sorted = random;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> reversed(sorted.rbegin(), sorted.rend());
    inputs.push_back(random);
    inputs.push_back(duplicates);
    inputs.push_back(sorted);
    inputs.push_back(reversed);
  }
  inputs.push_back({0.0, -0.0, 1.0, -0.0, 0.0});
  for (const std::vector<double>& values : inputs) {
    for (const double q : {0.0, 0.05, 0.5, 0.95, 1.0}) {
      EXPECT_TRUE(quantile(values, q) == sorted_quantile(values, q))
          << "n=" << values.size() << " q=" << q;
    }
    EXPECT_TRUE(median(values) == sorted_quantile(values, 0.5));
  }
}

TEST(Descriptive, SummaryAgreesWithPieces) {
  std::vector<double> v(101);
  std::iota(v.begin(), v.end(), 0.0);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.mean, 50.0);
  EXPECT_DOUBLE_EQ(s.median, 50.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.q25, 25.0);
  EXPECT_DOUBLE_EQ(s.q75, 75.0);
}

TEST(Wilcoxon, ClassicPairedExample) {
  // Hand-verified reference: W+ = 72, W- = 6, statistic = 6,
  // two-sided normal-approximation p = 0.00963.
  const std::vector<double> x = {1.83, 0.50, 1.62, 2.48, 1.68, 1.88,
                                 1.55, 3.06, 1.30, 2.01, 1.12, 1.45};
  const std::vector<double> y = {0.878, 0.647, 0.598, 2.05, 1.06, 1.29,
                                 1.06,  3.14,  1.29,  1.80, 1.00, 1.25};
  const WilcoxonResult r = wilcoxon_signed_rank(x, y);
  EXPECT_DOUBLE_EQ(r.w_plus, 72.0);
  EXPECT_DOUBLE_EQ(r.w_minus, 6.0);
  EXPECT_DOUBLE_EQ(r.statistic, 6.0);
  EXPECT_NEAR(r.p_value, 0.0096329757, 1e-9);
  EXPECT_EQ(r.n_used, 12u);
}

TEST(Wilcoxon, DetectsSystematicShift) {
  // A constant shift between pairs must give a vanishing p-value — this is
  // what flags the X86 repetition drift in the paper's Table III.
  util::Xoshiro256 rng(5);
  std::vector<double> a(60), b(60);
  for (int i = 0; i < 60; ++i) {
    a[static_cast<std::size_t>(i)] = rng.normal(10.0, 1.0);
    b[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)] + 0.3;
  }
  const WilcoxonResult r = wilcoxon_signed_rank(a, b);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);
  EXPECT_LT(r.p_value, 1e-10);
}

TEST(Wilcoxon, ConsistentPairsGiveHighPValue) {
  // Tiny symmetric noise: no significant difference (the A64FX behaviour).
  util::Xoshiro256 rng(7);
  std::vector<double> a(200), b(200);
  for (int i = 0; i < 200; ++i) {
    a[static_cast<std::size_t>(i)] = rng.normal(10.0, 1.0);
    b[static_cast<std::size_t>(i)] =
        a[static_cast<std::size_t>(i)] + rng.normal(0.0, 0.01);
  }
  const WilcoxonResult r = wilcoxon_signed_rank(a, b);
  EXPECT_GT(r.p_value, 0.05);
}

TEST(Wilcoxon, HandlesTiedMagnitudes) {
  // Differences with many tied |d| exercise the tie-average ranks and the
  // variance correction.
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(static_cast<double>(i));
    y.push_back(static_cast<double>(i) + ((i % 2 == 0) ? 1.0 : -1.0));
  }
  const WilcoxonResult r = wilcoxon_signed_rank(x, y);
  EXPECT_EQ(r.n_used, 20u);
  // Perfectly alternating signs with equal magnitudes: W+ == W-.
  EXPECT_DOUBLE_EQ(r.w_plus, r.w_minus);
  EXPECT_GT(r.p_value, 0.9);
}

TEST(Wilcoxon, RejectsBadInput) {
  EXPECT_THROW(wilcoxon_signed_rank({1, 2}, {1}), std::invalid_argument);
  // All-equal pairs leave zero usable differences.
  const std::vector<double> same(20, 3.0);
  EXPECT_THROW(wilcoxon_signed_rank(same, same), std::invalid_argument);
}

TEST(Kde, DensityIntegratesToOne) {
  util::Xoshiro256 rng(11);
  std::vector<double> values(500);
  for (double& v : values) v = rng.normal(5.0, 2.0);
  const ViolinData violin = kernel_density(values, 256);
  double integral = 0.0;
  for (std::size_t i = 1; i < violin.grid.size(); ++i) {
    const double dx = violin.grid[i] - violin.grid[i - 1];
    integral += 0.5 * (violin.density[i] + violin.density[i - 1]) * dx;
  }
  EXPECT_NEAR(integral, 1.0, 0.01);
}

TEST(Kde, PeaksNearTheMode) {
  util::Xoshiro256 rng(13);
  std::vector<double> values(2000);
  for (double& v : values) v = rng.normal(0.0, 1.0);
  const ViolinData violin = kernel_density(values, 512);
  std::size_t peak = 0;
  for (std::size_t i = 0; i < violin.density.size(); ++i) {
    if (violin.density[i] > violin.density[peak]) peak = i;
  }
  EXPECT_NEAR(violin.grid[peak], 0.0, 0.3);
}

TEST(Kde, BimodalDistributionShowsTwoBumps) {
  // The paper's violins are strongly multi-modal; the KDE must preserve it.
  util::Xoshiro256 rng(17);
  std::vector<double> values;
  for (int i = 0; i < 800; ++i) values.push_back(rng.normal(0.0, 0.3));
  for (int i = 0; i < 800; ++i) values.push_back(rng.normal(5.0, 0.3));
  const ViolinData violin = kernel_density(values, 512);
  // Density at the midpoint valley far below the mode density.
  double valley = 1e9, mode = 0.0;
  for (std::size_t i = 0; i < violin.grid.size(); ++i) {
    if (std::abs(violin.grid[i] - 2.5) < 0.3) valley = std::min(valley, violin.density[i]);
    mode = std::max(mode, violin.density[i]);
  }
  EXPECT_LT(valley, 0.1 * mode);
}

TEST(Kde, RejectsDegenerateInput) {
  EXPECT_THROW(kernel_density({1.0}, 64), std::invalid_argument);
  EXPECT_THROW(kernel_density({1.0, 2.0}, 1), std::invalid_argument);
}

TEST(Histogram, CountsFallIntoBins) {
  const std::vector<double> values = {0.1, 0.2, 0.55, 0.9, 0.95, 2.0};
  const auto counts = histogram(values, 0.0, 1.0, 2);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 2);  // 0.1, 0.2
  EXPECT_EQ(counts[1], 3);  // 0.55, 0.9, 0.95; 2.0 out of range
  EXPECT_THROW(histogram(values, 1.0, 0.0, 2), std::invalid_argument);
  EXPECT_THROW(histogram(values, 0.0, 1.0, 0), std::invalid_argument);
}

TEST(Violin, AsciiRenderingShowsDistribution) {
  std::vector<double> values;
  util::Xoshiro256 rng(23);
  for (int i = 0; i < 400; ++i) values.push_back(rng.normal(1.0, 0.05));
  const std::string art = render_ascii_violin(values, 10, 40);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_EQ(static_cast<int>(std::count(art.begin(), art.end(), '\n')), 10);
}

}  // namespace
}  // namespace omptune::stats
