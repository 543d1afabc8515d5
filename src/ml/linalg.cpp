#include "ml/linalg.hpp"

#include <cmath>

namespace omptune::ml {

ColumnBlocks::ColumnBlocks(const Matrix& x)
    : ColumnBlocks(x.rows(), x.cols()) {
  for (std::size_t chunk = 0; chunk < chunks(); ++chunk) {
    const std::size_t begin = chunk * kChunkRows;
    const std::size_t len = chunk_rows(chunk);
    for (std::size_t c = 0; c < cols_; ++c) {
      double* out = column(chunk, c);
      for (std::size_t i = 0; i < len; ++i) out[i] = x.at(begin + i, c);
    }
  }
}

Matrix Matrix::gram() const {
  Matrix g(cols_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* x = row(r);
    for (std::size_t i = 0; i < cols_; ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      for (std::size_t j = i; j < cols_; ++j) {
        g.at(i, j) += xi * x[j];
      }
    }
  }
  // Mirror the upper triangle.
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = 0; j < i; ++j) g.at(i, j) = g.at(j, i);
  }
  return g;
}

std::vector<double> Matrix::transpose_times(const std::vector<double>& v) const {
  if (v.size() != rows_) {
    throw std::invalid_argument("transpose_times: dimension mismatch");
  }
  std::vector<double> out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* x = row(r);
    const double vr = v[r];
    for (std::size_t c = 0; c < cols_; ++c) out[c] += x[c] * vr;
  }
  return out;
}

std::vector<double> Matrix::times(const std::vector<double>& w) const {
  if (w.size() != cols_) {
    throw std::invalid_argument("times: dimension mismatch");
  }
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* x = row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += x[c] * w[c];
    out[r] = acc;
  }
  return out;
}

std::vector<double> solve_linear_system(Matrix m, std::vector<double> b) {
  const std::size_t n = m.rows();
  if (m.cols() != n || b.size() != n) {
    throw std::invalid_argument("solve_linear_system: need square system");
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(m.at(r, col)) > std::abs(m.at(pivot, col))) pivot = r;
    }
    if (std::abs(m.at(pivot, col)) < 1e-12) {
      throw std::runtime_error("solve_linear_system: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(m.at(col, c), m.at(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / m.at(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = m.at(r, col) * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) m.at(r, c) -= f * m.at(col, c);
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= m.at(ri, c) * x[c];
    x[ri] = acc / m.at(ri, ri);
  }
  return x;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace omptune::ml
