#include "ml/scaler.hpp"

#include <cmath>
#include <stdexcept>

namespace omptune::ml {

namespace {

/// Mean and scale of one column; `for_each(f)` calls f on the column's
/// values in row order, so both layouts add them in the same order.
template <typename ForEach>
void column_moments(std::size_t rows, const ForEach& for_each, double& mean,
                    double& scale) {
  double sum = 0.0;
  for_each([&sum](double v) { sum += v; });
  mean = sum / static_cast<double>(rows);
  double ss = 0.0;
  for_each([&ss, mean](double v) {
    const double d = v - mean;
    ss += d * d;
  });
  const double variance = ss / static_cast<double>(rows);
  scale = variance > 1e-24 ? std::sqrt(variance) : 1.0;
}

}  // namespace

void StandardScaler::fit(const Matrix& x) {
  if (x.rows() == 0) throw std::invalid_argument("StandardScaler::fit: empty");
  means_.assign(x.cols(), 0.0);
  scales_.assign(x.cols(), 1.0);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    column_moments(
        x.rows(),
        [&](const auto& f) {
          for (std::size_t r = 0; r < x.rows(); ++r) f(x.at(r, c));
        },
        means_[c], scales_[c]);
  }
}

void StandardScaler::fit_transform(ColumnBlocks& x) {
  if (x.rows() == 0) throw std::invalid_argument("StandardScaler::fit: empty");
  means_.assign(x.cols(), 0.0);
  scales_.assign(x.cols(), 1.0);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    auto for_each = [&](const auto& f) {
      for (std::size_t chunk = 0; chunk < x.chunks(); ++chunk) {
        double* col = x.column(chunk, c);
        for (std::size_t i = 0; i < x.chunk_rows(chunk); ++i) f(col[i]);
      }
    };
    column_moments(x.rows(), for_each, means_[c], scales_[c]);
    for_each([&](double& v) { v = (v - means_[c]) / scales_[c]; });
  }
}

Matrix StandardScaler::transform(const Matrix& x) const {
  if (!fitted()) throw std::logic_error("StandardScaler::transform: not fitted");
  if (x.cols() != means_.size()) {
    throw std::invalid_argument("StandardScaler::transform: width mismatch");
  }
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out.at(r, c) = (x.at(r, c) - means_[c]) / scales_[c];
    }
  }
  return out;
}

}  // namespace omptune::ml
