// Differential test of the lock-step logistic solver: every fit must equal,
// bit for bit (== on the vectors, never NEAR), the row-major chunked
// gradient descent kept verbatim below as the reference, together with the
// scaler it was fed by. Both are the code as it stood before the lock-step
// rewrite; the influence maps, Figs 2-4 and the tuner's variable priorities
// all hang on their exact bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/influence.hpp"
#include "ml/features.hpp"
#include "ml/linalg.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/scaler.hpp"
#include "sim/executor.hpp"
#include "sweep/harness.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace omptune {
namespace {

// ---- reference: verbatim copies of the previous solver and scaler ----------

namespace reference {

constexpr std::size_t kRowGrain = 1024;

double sigmoid(double z) {
  if (z >= 0.0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

struct LogisticRegression {
  explicit LogisticRegression(ml::LogisticOptions options = {})
      : options_(options) {}

  void fit(const ml::Matrix& x, const std::vector<int>& y,
           const util::ThreadPool* pool = nullptr);

  ml::LogisticOptions options_;
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

void LogisticRegression::fit(const ml::Matrix& x, const std::vector<int>& y,
                             const util::ThreadPool* pool) {
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("LogisticRegression::fit: dimension mismatch");
  }
  for (const int label : y) {
    if (label != 0 && label != 1) {
      throw std::invalid_argument("LogisticRegression::fit: labels must be 0/1");
    }
  }

  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  coef_.assign(d, 0.0);
  intercept_ = 0.0;
  const double inv_n = 1.0 / static_cast<double>(n);

  // All scratch for the whole fit, allocated once: one (grad, grad_b) slab
  // per chunk plus the merged gradient. ~300 epochs reuse these buffers.
  const std::size_t chunks = util::ThreadPool::chunk_count(n, kRowGrain);
  const std::size_t stride = d + 1;  // d feature gradients + the intercept's
  std::vector<double> partials(chunks * stride);
  std::vector<double> grad(d, 0.0);

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    std::fill(partials.begin(), partials.end(), 0.0);
    util::parallel_for(
        pool, n, kRowGrain,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          double* p = partials.data() + chunk * stride;
          for (std::size_t r = begin; r < end; ++r) {
            const double* xr = x.row(r);
            double z = intercept_;
            for (std::size_t c = 0; c < d; ++c) z += coef_[c] * xr[c];
            const double err = sigmoid(z) - static_cast<double>(y[r]);
            for (std::size_t c = 0; c < d; ++c) p[c] += err * xr[c];
            p[d] += err;
          }
        });
    // Merge partials in ascending chunk order — the fixed association that
    // keeps the fit independent of how chunks were scheduled.
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_b = 0.0;
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const double* p = partials.data() + chunk * stride;
      for (std::size_t c = 0; c < d; ++c) grad[c] += p[c];
      grad_b += p[d];
    }
    double grad_norm2 = grad_b * inv_n * grad_b * inv_n;
    for (std::size_t c = 0; c < d; ++c) {
      grad[c] = grad[c] * inv_n + options_.l2 * coef_[c];
      grad_norm2 += grad[c] * grad[c];
    }
    grad_b *= inv_n;
    for (std::size_t c = 0; c < d; ++c) {
      coef_[c] -= options_.learning_rate * grad[c];
    }
    intercept_ -= options_.learning_rate * grad_b;
    if (grad_norm2 < options_.tolerance * options_.tolerance) break;
  }
}

/// The previous StandardScaler::fit then transform.
struct StandardScaler {
  void fit(const ml::Matrix& x);
  ml::Matrix transform(const ml::Matrix& x) const;
  ml::Matrix fit_transform(const ml::Matrix& x) {
    fit(x);
    return transform(x);
  }
  std::vector<double> means_;
  std::vector<double> scales_;
};

void StandardScaler::fit(const ml::Matrix& x) {
  if (x.rows() == 0) throw std::invalid_argument("StandardScaler::fit: empty");
  means_.assign(x.cols(), 0.0);
  scales_.assign(x.cols(), 1.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) means_[c] += x.at(r, c);
  }
  for (double& m : means_) m /= static_cast<double>(x.rows());
  std::vector<double> ss(x.cols(), 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const double d = x.at(r, c) - means_[c];
      ss[c] += d * d;
    }
  }
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const double variance = ss[c] / static_cast<double>(x.rows());
    scales_[c] = variance > 1e-24 ? std::sqrt(variance) : 1.0;
  }
}

ml::Matrix StandardScaler::transform(const ml::Matrix& x) const {
  ml::Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out.at(r, c) = (x.at(r, c) - means_[c]) / scales_[c];
    }
  }
  return out;
}

/// The previous influence_map: a Dataset copy per group, row-major
/// encode and standardize, one fit per group, row-major accuracy.
analysis::InfluenceMap influence_map(const sweep::Dataset& dataset,
                                     analysis::Grouping grouping) {
  ml::FeatureOptions feature_options;
  feature_options.include_architecture =
      grouping == analysis::Grouping::PerApplication;
  feature_options.include_application =
      grouping == analysis::Grouping::PerArchitecture;
  const ml::FeatureEncoder encoder(feature_options);
  auto key_of = [grouping](const sweep::Sample& s) {
    switch (grouping) {
      case analysis::Grouping::PerApplication: return s.app;
      case analysis::Grouping::PerArchitecture: return s.arch;
      case analysis::Grouping::PerArchApplication: return s.arch + "/" + s.app;
    }
    return std::string();
  };
  analysis::InfluenceMap map;
  map.feature_names = encoder.names();
  for (const std::string& key : dataset.distinct(key_of)) {
    const sweep::Dataset slice = dataset.filter(
        [&](const sweep::Sample& s) { return key_of(s) == key; });
    const std::vector<int> labels = ml::FeatureEncoder::labels(slice, 1.01);
    const std::size_t positives = static_cast<std::size_t>(
        std::count(labels.begin(), labels.end(), 1));
    if (positives == 0 || positives == labels.size()) continue;
    StandardScaler scaler;
    const ml::Matrix x = scaler.fit_transform(encoder.encode(slice));
    LogisticRegression model;
    model.fit(x, labels);

    analysis::InfluenceRow row;
    row.group = key;
    double total = 0.0;
    for (const double c : model.coef_) {
      row.influence.push_back(std::abs(c));
      total += std::abs(c);
    }
    if (total > 0.0) {
      for (double& v : row.influence) v /= total;
    }
    std::size_t correct = 0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      double z = model.intercept_;
      for (std::size_t c = 0; c < x.cols(); ++c) {
        z += model.coef_[c] * x.at(r, c);
      }
      correct += (sigmoid(z) >= 0.5 ? 1 : 0) == labels[r];
    }
    row.model_accuracy =
        static_cast<double>(correct) / static_cast<double>(labels.size());
    row.positive_share =
        static_cast<double>(positives) / static_cast<double>(labels.size());
    row.samples = labels.size();
    map.rows.push_back(std::move(row));
  }
  return map;
}

}  // namespace reference

// ---- fixtures ---------------------------------------------------------------

struct Problem {
  ml::Matrix x;
  std::vector<int> y;
};

/// Standard-normal features with labels from a noisy linear rule, so both
/// classes appear and the fit has real gradients to follow. A column listed
/// in `constant` is all zeros: a standardized zero-variance column.
Problem make_problem(std::size_t n, std::size_t d, std::uint64_t seed,
                     std::size_t constant = static_cast<std::size_t>(-1)) {
  util::Xoshiro256 rng(seed);
  Problem p{ml::Matrix(n, d), std::vector<int>(n)};
  for (std::size_t r = 0; r < n; ++r) {
    double z = 0.3;
    for (std::size_t c = 0; c < d; ++c) {
      const double v = c == constant ? 0.0 : rng.normal();
      p.x.at(r, c) = v;
      z += v * (static_cast<double>(c % 5) - 1.5);
    }
    p.y[r] = z + rng.normal() > 0.0 ? 1 : 0;
  }
  return p;
}

/// The share of rows where the row-major predict() path equals the label.
double accuracy_from_predict(const ml::LogisticRegression& model,
                             const ml::Matrix& x, const std::vector<int>& y) {
  const std::vector<int> pred = model.predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) correct += pred[i] == y[i];
  return static_cast<double>(correct) / static_cast<double>(y.size());
}

double block_value(const ml::ColumnBlocks& x, std::size_t r, std::size_t c) {
  return x.column(r / ml::ColumnBlocks::kChunkRows,
                  c)[r % ml::ColumnBlocks::kChunkRows];
}

const std::vector<std::unique_ptr<util::ThreadPool>>& pools() {
  static const auto all = [] {
    std::vector<std::unique_ptr<util::ThreadPool>> out;
    for (const unsigned lanes : {1u, 2u, 4u, 8u}) {
      out.push_back(std::make_unique<util::ThreadPool>(lanes));
    }
    return out;
  }();
  return all;
}

void expect_same_fit(const ml::LogisticRegression& got,
                     const reference::LogisticRegression& want,
                     const std::string& label) {
  EXPECT_TRUE(got.coefficients() == want.coef_) << label;
  EXPECT_TRUE(got.intercept() == want.intercept_) << label;
}

// ---- single fits --------------------------------------------------------------

TEST(LogisticDifferential, FitEqualsReferenceAcrossShapes) {
  for (const std::size_t n : {1u, 3u, 4u, 1023u, 1024u, 1025u, 4097u}) {
    for (const std::size_t d : {1u, 11u, 13u}) {
      const Problem p = make_problem(n, d, 1000 * n + d);
      reference::LogisticRegression want;
      want.fit(p.x, p.y);
      const std::string label =
          "n=" + std::to_string(n) + " d=" + std::to_string(d);
      ml::LogisticRegression serial;
      serial.fit(p.x, p.y);
      expect_same_fit(serial, want, label + " serial");
      for (const auto& pool : pools()) {
        ml::LogisticRegression parallel;
        parallel.fit(p.x, p.y, pool.get());
        expect_same_fit(parallel, want,
                        label + " " + std::to_string(pool->threads()) + " lanes");
      }
    }
  }
}

TEST(LogisticDifferential, ZeroVarianceColumn) {
  const Problem p = make_problem(2500, 11, 77, /*constant=*/4);
  reference::LogisticRegression want;
  want.fit(p.x, p.y);
  ASSERT_EQ(want.coef_[4], 0.0);  // l2 keeps a dead column at exactly zero
  for (const auto& pool : pools()) {
    ml::LogisticRegression got;
    got.fit(p.x, p.y, pool.get());
    expect_same_fit(got, want, std::to_string(pool->threads()) + " lanes");
  }
}

TEST(LogisticDifferential, EarlyStopOnTolerance) {
  ml::LogisticOptions options;
  options.tolerance = 1e-2;
  const Problem p = make_problem(3000, 11, 5);
  reference::LogisticRegression want(options);
  want.fit(p.x, p.y);
  // It really stopped early: more epochs change nothing.
  ml::LogisticOptions longer = options;
  longer.epochs = 100000;
  reference::LogisticRegression longer_want(longer);
  longer_want.fit(p.x, p.y);
  ASSERT_TRUE(longer_want.coef_ == want.coef_);
  reference::LogisticRegression unstopped({.tolerance = 0.0});
  unstopped.fit(p.x, p.y);
  ASSERT_FALSE(unstopped.coef_ == want.coef_);

  for (const auto& pool : pools()) {
    ml::LogisticRegression got(options);
    got.fit(p.x, p.y, pool.get());
    expect_same_fit(got, want, std::to_string(pool->threads()) + " lanes");
  }
}

// ---- batches ----------------------------------------------------------------

TEST(LogisticDifferential, FitBatchEqualsSingleFitsAtEveryPoolSize) {
  // Mixed sizes, widths and options, so problems retire at different
  // epochs (tolerance, epoch count, zero epochs) while others run on.
  struct Spec {
    std::size_t n, d;
    ml::LogisticOptions options;
  };
  const std::vector<Spec> specs = {
      {4097, 13, {}},
      {1, 11, {}},
      {1025, 11, {.tolerance = 1e-2}},
      {300, 1, {.learning_rate = 0.1}},
      {2048, 12, {.epochs = 17}},
      {1024, 11, {.epochs = 0}},
      {5000, 10, {.l2 = 0.0, .tolerance = 1e-3}},
  };
  std::vector<Problem> data;
  std::vector<reference::LogisticRegression> want;
  std::vector<ml::ColumnBlocks> blocks;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    data.push_back(make_problem(specs[i].n, specs[i].d, 31 + i));
    want.emplace_back(specs[i].options);
    want.back().fit(data.back().x, data.back().y);
    blocks.emplace_back(data.back().x);
  }
  std::vector<ml::LogisticProblem> problems;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    problems.push_back({&blocks[i], &data[i].y});
  }
  std::vector<const util::ThreadPool*> lanes = {nullptr};
  for (const auto& pool : pools()) lanes.push_back(pool.get());
  for (const util::ThreadPool* pool : lanes) {
    std::vector<ml::LogisticRegression> models;
    for (const Spec& spec : specs) models.emplace_back(spec.options);
    ml::LogisticRegression::fit_batch(models, problems, pool);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string label =
          "problem " + std::to_string(i) + " at " +
          std::to_string(pool == nullptr ? 0 : pool->threads()) + " lanes";
      expect_same_fit(models[i], want[i], label);
      if (specs[i].options.epochs > 0) {
        EXPECT_EQ(models[i].accuracy(blocks[i], data[i].y, pool),
                  accuracy_from_predict(models[i], data[i].x, data[i].y))
            << label;
      }
    }
  }
}

TEST(LogisticDifferential, FitBatchRejectsBadProblems) {
  const Problem p = make_problem(10, 2, 1);
  const ml::ColumnBlocks x(p.x);
  const std::vector<int> short_labels(9, 0);
  const std::vector<int> bad_labels(10, 2);
  for (const std::vector<int>* y : {&short_labels, &bad_labels}) {
    std::vector<ml::LogisticRegression> models(1);
    EXPECT_THROW(
        ml::LogisticRegression::fit_batch(models, {{&x, y}}, nullptr),
        std::invalid_argument);
  }
  std::vector<ml::LogisticRegression> two(2);
  EXPECT_THROW(ml::LogisticRegression::fit_batch(two, {{&x, &p.y}}, nullptr),
               std::invalid_argument);
}

TEST(LogisticDifferential, ScalersEqualReference) {
  Problem p = make_problem(2100, 11, 9, /*constant=*/2);
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    p.x.at(r, 2) = 3.0;
    p.x.at(r, 5) = p.x.at(r, 5) * 40.0 + 7.0;
  }
  reference::StandardScaler reference_scaler;
  const ml::Matrix want = reference_scaler.fit_transform(p.x);
  ml::StandardScaler matrix_scaler;
  const ml::Matrix from_matrix = matrix_scaler.fit_transform(p.x);
  ml::ColumnBlocks from_blocks(p.x);
  ml::StandardScaler block_scaler;
  block_scaler.fit_transform(from_blocks);
  for (const ml::StandardScaler* scaler : {&matrix_scaler, &block_scaler}) {
    EXPECT_TRUE(scaler->means() == reference_scaler.means_);
    EXPECT_TRUE(scaler->scales() == reference_scaler.scales_);
  }
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t c = 0; c < want.cols(); ++c) {
      ASSERT_EQ(from_matrix.at(r, c), want.at(r, c)) << r << "," << c;
      ASSERT_EQ(block_value(from_blocks, r, c), want.at(r, c))
          << r << "," << c;
    }
  }
}

TEST(LogisticDifferential, SigmoidEqualsReference) {
  util::Xoshiro256 rng(3);
  std::vector<double> zs = {0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0,
                            709.0, -709.0, 745.0, -745.0, 1000.0, -1000.0};
  for (int i = 0; i < 20000; ++i) zs.push_back(rng.normal(0.0, 8.0));
  for (const double z : zs) {
    ASSERT_EQ(ml::sigmoid(z), reference::sigmoid(z)) << z;
  }
}

// ---- the golden mini study ------------------------------------------------------

TEST(LogisticDifferential, MiniStudyInfluenceMapsEqualReference) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, /*repetitions=*/3);
  const sweep::Dataset dataset =
      harness.run_study(sweep::StudyPlan::mini_plan(4, 400));
  for (const analysis::Grouping grouping :
       {analysis::Grouping::PerApplication, analysis::Grouping::PerArchitecture,
        analysis::Grouping::PerArchApplication}) {
    const analysis::InfluenceMap want =
        reference::influence_map(dataset, grouping);
    ASSERT_FALSE(want.rows.empty()) << analysis::to_string(grouping);
    std::vector<const util::ThreadPool*> lanes = {nullptr};
    for (const auto& pool : pools()) lanes.push_back(pool.get());
    for (const util::ThreadPool* pool : lanes) {
      const analysis::InfluenceMap got =
          analysis::influence_map(dataset, grouping, 1.01, {}, pool);
      const std::string label =
          analysis::to_string(grouping) + " at " +
          std::to_string(pool == nullptr ? 0 : pool->threads()) + " lanes";
      EXPECT_EQ(got.feature_names, want.feature_names) << label;
      ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
      for (std::size_t i = 0; i < want.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].group, want.rows[i].group) << label;
        EXPECT_TRUE(got.rows[i].influence == want.rows[i].influence)
            << label << " " << want.rows[i].group;
        EXPECT_EQ(got.rows[i].model_accuracy, want.rows[i].model_accuracy)
            << label << " " << want.rows[i].group;
        EXPECT_EQ(got.rows[i].positive_share, want.rows[i].positive_share)
            << label;
        EXPECT_EQ(got.rows[i].samples, want.rows[i].samples) << label;
      }
    }
  }
}

}  // namespace
}  // namespace omptune
