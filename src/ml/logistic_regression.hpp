#pragma once

// L2-regularized logistic regression trained by batch gradient descent —
// the paper's analysis workhorse: samples are labelled optimal
// (speedup > 1.01) vs sub-optimal, the model is fitted per grouping, and
// the weight-normalized |coefficients| become the feature-influence heat
// maps (Figs 2, 3, 4).

#include <cstdint>
#include <vector>

#include "ml/linalg.hpp"

namespace omptune::util {
class ThreadPool;
}

namespace omptune::ml {

struct LogisticOptions {
  double learning_rate = 0.5;
  int epochs = 300;
  double l2 = 1e-3;
  /// Stop early when the gradient norm falls below this.
  double tolerance = 1e-7;
};

/// One problem of a lock-step batch fit: standardized features in the
/// solver's layout and their 0/1 labels, in row order.
struct LogisticProblem {
  const ColumnBlocks* x = nullptr;
  const std::vector<int>* y = nullptr;
};

class LogisticRegression {
 public:
  explicit LogisticRegression(LogisticOptions options = {})
      : options_(options) {}

  /// Fit on features x and binary labels y (0/1). Inputs should be
  /// standardized (see StandardScaler) so coefficients are comparable.
  ///
  /// The batch of one: x is re-laid into ColumnBlocks and fitted by the
  /// same lock-step solver as fit_batch. Each epoch splits the rows into
  /// fixed 1024-row tiles whose partial gradients merge in ascending tile
  /// order; the tiling depends on the row count alone, so the fitted
  /// weights are bit-identical at any thread count (including no pool at
  /// all). All gradient scratch is allocated once up front, never per
  /// epoch.
  void fit(const Matrix& x, const std::vector<int>& y,
           const util::ThreadPool* pool = nullptr);

  /// Fit models[i] on problems[i], every model with its own options, in
  /// lock step: each epoch is one parallel_for over the (problem, tile)
  /// pairs of every problem still running, so small problems share the
  /// lanes instead of idling them. A problem stops on its own epoch count
  /// or tolerance. Each model ends bit-identical to its own fit().
  static void fit_batch(std::vector<LogisticRegression>& models,
                        const std::vector<LogisticProblem>& problems,
                        const util::ThreadPool* pool = nullptr);

  /// P(y=1 | x) into a caller-owned buffer (resized to x.rows()) — the
  /// allocation-free form for callers scoring in a loop.
  void predict_proba_into(const Matrix& x, std::vector<double>& out,
                          const util::ThreadPool* pool = nullptr) const;

  /// P(y=1 | x) per row.
  std::vector<double> predict_proba(const Matrix& x,
                                    const util::ThreadPool* pool = nullptr) const;

  /// Hard predictions at threshold 0.5.
  std::vector<int> predict(const Matrix& x,
                           const util::ThreadPool* pool = nullptr) const;

  /// Classification accuracy on (x, y): the share of rows where predict()
  /// equals the label, scored over the solver's layout.
  double accuracy(const ColumnBlocks& x, const std::vector<int>& y,
                  const util::ThreadPool* pool = nullptr) const;
  /// The same, re-laying a row-major x as ColumnBlocks first.
  double accuracy(const Matrix& x, const std::vector<int>& y,
                  const util::ThreadPool* pool = nullptr) const;

  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }
  bool fitted() const { return !coef_.empty(); }

  /// |coefficients|, normalized to sum to 1 — the influence vector the heat
  /// maps display (darker = larger share).
  std::vector<double> normalized_influence() const;

 private:
  LogisticOptions options_;
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

/// Numerically-stable logistic sigmoid, branch-free: num / (1 + e) with
/// e = exp(-|z|) and num = 1 for z >= 0, e otherwise. The exp is the
/// project's own, from IEEE + - * and bit casts only, so the fit kernel's
/// vectorised loop and a scalar call give the same bits in every build;
/// it is within 2 ulp of the libm form, and |z| is clamped at 708.
double sigmoid(double z);

}  // namespace omptune::ml
