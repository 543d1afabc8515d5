#pragma once

// Minimal dense linear algebra for the linear-model analysis: row-major
// matrices, the handful of BLAS-1/2 operations the solvers need, and a
// partial-pivot Gaussian solve for the normal equations.

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace omptune::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Row view as a pointer (contiguous row-major storage).
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }
  double* row(std::size_t r) { return data_.data() + r * cols_; }

  /// A^T * A (for the normal equations).
  Matrix gram() const;

  /// A^T * v.
  std::vector<double> transpose_times(const std::vector<double>& v) const;

  /// A * w.
  std::vector<double> times(const std::vector<double>& w) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// The logistic solver's layout: rows split into chunks of kChunkRows (the
/// last one shorter), each chunk storing its columns one after another, so
/// one column's values for one chunk are contiguous. A chunk is one tile
/// of the solver's epoch; the chunking depends on the row count alone.
class ColumnBlocks {
 public:
  static constexpr std::size_t kChunkRows = 1024;

  ColumnBlocks() = default;
  ColumnBlocks(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  /// Re-lay a row-major matrix.
  explicit ColumnBlocks(const Matrix& x);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t chunks() const { return (rows_ + kChunkRows - 1) / kChunkRows; }
  std::size_t chunk_rows(std::size_t chunk) const {
    const std::size_t begin = chunk * kChunkRows;
    return rows_ - begin < kChunkRows ? rows_ - begin : kChunkRows;
  }

  /// Column `c` of `chunk`: chunk_rows(chunk) contiguous values.
  const double* column(std::size_t chunk, std::size_t c) const {
    return data_.data() + chunk * kChunkRows * cols_ + c * chunk_rows(chunk);
  }
  double* column(std::size_t chunk, std::size_t c) {
    return data_.data() + chunk * kChunkRows * cols_ + c * chunk_rows(chunk);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solve the square system M x = b by Gaussian elimination with partial
/// pivoting; throws std::runtime_error on (near-)singular systems.
std::vector<double> solve_linear_system(Matrix m, std::vector<double> b);

double dot(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace omptune::ml
