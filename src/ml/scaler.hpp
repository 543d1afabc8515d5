#pragma once

// Standardization (zero mean, unit variance per column) — applied before
// the linear models so that coefficient magnitudes are comparable across
// features, which is what makes the influence heat maps meaningful.

#include <vector>

#include "ml/linalg.hpp"

namespace omptune::ml {

class StandardScaler {
 public:
  /// Learn per-column mean and standard deviation. Constant columns get
  /// scale 1 (they standardize to zero).
  void fit(const Matrix& x);

  /// Standardize a copy of x. Throws if fit() was not called or widths
  /// mismatch.
  Matrix transform(const Matrix& x) const;

  Matrix fit_transform(const Matrix& x) {
    fit(x);
    return transform(x);
  }

  /// fit_transform over the solver's layout, in place: the same sums in
  /// the same row order, so the values equal fit_transform(Matrix)'s.
  void fit_transform(ColumnBlocks& x);

  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& scales() const { return scales_; }
  bool fitted() const { return !means_.empty(); }

 private:
  std::vector<double> means_;
  std::vector<double> scales_;
};

}  // namespace omptune::ml
