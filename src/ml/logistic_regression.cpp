#include "ml/logistic_regression.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace omptune::ml {

namespace {

/// Rows per tile: the ColumnBlocks chunk. Fixed — the tiling (and therefore
/// the gradient summation order) must depend only on the row count, never
/// on the thread count, or fits would stop being bit-reproducible.
constexpr std::size_t kRowGrain = ColumnBlocks::kChunkRows;

/// Column sums one pass of a tile runs interleaved (independent add chains).
constexpr std::size_t kChains = 4;

/// A tile's partial gradients occupy whole cache lines of their own, so
/// tiles on different lanes never write the same line.
struct alignas(64) SlabLine {
  double v[8];
};
constexpr std::size_t kLineDoubles = sizeof(SlabLine) / sizeof(double);

/// The tile's intercept column: err * 1.0 == err exactly, so the intercept
/// sums like any feature column.
const double* ones() {
  static const std::vector<double> column(kRowGrain, 1.0);
  return column.data();
}

/// |z| at which sigmoid clamps its exp argument: e^-708 is still a normal
/// double, so the 2^k that exp_nonpositive builds stays a normal power.
constexpr double kExpClamp = 708.0;

/// 1/n! for n = 0..13: e^r's Taylor coefficients, Horner's from the top.
constexpr auto kInvFactorial = [] {
  std::array<double, 14> c{};
  double factorial = 1.0;
  for (std::size_t n = 0; n < c.size(); ++n) {
    if (n > 0) factorial *= static_cast<double>(n);
    c[n] = 1.0 / factorial;
  }
  return c;
}();

/// e^x for x in [-kExpClamp, 0] (NaN stays NaN), from plain IEEE + - * and
/// bit casts only, so a vector lane computes the bits a scalar call does.
/// x = k ln2 + r: k is rounded by the shifter and ln2 is split hi/lo
/// (Cody-Waite; k * kLn2Hi is exact), e^r is its degree-13 Taylor
/// polynomial on |r| <= ln2/2 (truncation below 1e-17), and 2^k is built
/// from its exponent bits. Multiplying by the exact power gives the bits
/// that adding k to p's exponent would, and keeps a NaN p a NaN.
double exp_nonpositive(double x) {
  constexpr double kShifter = 0x1.8p52;  // x + kShifter rounds x to integer
  constexpr double kLog2e = 0x1.71547652b82fep0;
  constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  const double shifted = x * kLog2e + kShifter;
  const double k = shifted - kShifter;
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;
  double p = kInvFactorial[13];
  for (std::size_t n = 13; n-- > 0;) p = p * r + kInvFactorial[n];
  // k as a two's-complement integer in the shifted value's low bits.
  const std::uint64_t k_bits = std::bit_cast<std::uint64_t>(shifted) -
                               std::bit_cast<std::uint64_t>(kShifter);
  return p * std::bit_cast<double>((k_bits + 1023) << 52);
}

/// z = intercept + sum_c coef[c] * x[c] for every row of one chunk, each
/// row's terms added in ascending column order (vectorised across rows).
void chunk_logits(const ColumnBlocks& x, std::size_t chunk, const double* coef,
                  double intercept, double* z) {
  const std::size_t len = x.chunk_rows(chunk);
  std::fill(z, z + len, intercept);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const double* col = x.column(chunk, c);
    const double w = coef[c];
    for (std::size_t i = 0; i < len; ++i) z[i] += w * col[i];
  }
}

/// out[w] = sum_i err[i] * cols[w][i] from 0.0, each sum in row order; the
/// W sums advance together, one row at a time.
template <std::size_t W>
void column_sums(const double* err, const double* const* cols,
                 std::size_t len, double* out) {
  double acc[W] = {};
  for (std::size_t i = 0; i < len; ++i) {
    const double e = err[i];
    for (std::size_t w = 0; w < W; ++w) acc[w] += e * cols[w][i];
  }
  for (std::size_t w = 0; w < W; ++w) out[w] = acc[w];
}

/// One tile of an epoch: the partial gradients of one chunk (d feature
/// sums, then the intercept's), accumulated in locals and written once.
/// On x86-64 it is compiled twice, for the build's target and for AVX2, and
/// the loader picks one per host; flatten inlines every callee, so the AVX2
/// clone runs AVX2 code throughout. Both compute the same bits: every
/// vector lane runs the scalar code's operations in its order, and FP
/// contraction is off (see src/CMakeLists.txt), so no build fuses a
/// multiply-add. ThreadSanitizer builds keep one version: TSan instruments
/// the clone resolver, which the loader runs before TSan's runtime is set
/// up, and the program crashes at start.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("avx2", "default")))
#endif
__attribute__((flatten))
void tile_partials(const ColumnBlocks& x, const int* y, std::size_t chunk,
                   const double* coef, double intercept, double* out) {
  const std::size_t len = x.chunk_rows(chunk);
  const std::size_t d = x.cols();
  double err[kRowGrain];
  chunk_logits(x, chunk, coef, intercept, err);
  for (std::size_t i = 0; i < len; ++i) {
    err[i] = sigmoid(err[i]) - static_cast<double>(y[i]);
  }
  for (std::size_t first = 0; first <= d; first += kChains) {
    const std::size_t width = std::min(kChains, d + 1 - first);
    const double* cols[kChains];
    for (std::size_t w = 0; w < width; ++w) {
      cols[w] = first + w < d ? x.column(chunk, first + w) : ones();
    }
    switch (width) {
      case 1: column_sums<1>(err, cols, len, out + first); break;
      case 2: column_sums<2>(err, cols, len, out + first); break;
      case 3: column_sums<3>(err, cols, len, out + first); break;
      default: column_sums<kChains>(err, cols, len, out + first); break;
    }
  }
}

void check_problem(const LogisticProblem& problem) {
  if (problem.x == nullptr || problem.y == nullptr ||
      problem.x->rows() != problem.y->size() || problem.x->rows() == 0) {
    throw std::invalid_argument("LogisticRegression::fit: dimension mismatch");
  }
  for (const int label : *problem.y) {
    if (label != 0 && label != 1) {
      throw std::invalid_argument("LogisticRegression::fit: labels must be 0/1");
    }
  }
}

}  // namespace

double sigmoid(double z) {
  const double e = exp_nonpositive(-std::min(std::abs(z), kExpClamp));
  // The numerator is picked by a mask of z's sign bit, not a branch: the
  // sign of z is a coin flip across a fit's rows. (At -0.0, e is 1.0.)
  const std::uint64_t negative =
      0 - (std::bit_cast<std::uint64_t>(z) >> 63);
  const double num = std::bit_cast<double>(
      (std::bit_cast<std::uint64_t>(1.0) & ~negative) |
      (std::bit_cast<std::uint64_t>(e) & negative));
  return num / (1.0 + e);
}

void LogisticRegression::fit(const Matrix& x, const std::vector<int>& y,
                             const util::ThreadPool* pool) {
  const ColumnBlocks blocks(x);
  std::vector<LogisticRegression> batch{*this};
  fit_batch(batch, {{&blocks, &y}}, pool);
  *this = std::move(batch.front());
}

void LogisticRegression::fit_batch(std::vector<LogisticRegression>& models,
                                   const std::vector<LogisticProblem>& problems,
                                   const util::ThreadPool* pool) {
  if (models.size() != problems.size()) {
    throw std::invalid_argument("LogisticRegression::fit_batch: size mismatch");
  }
  for (const LogisticProblem& problem : problems) check_problem(problem);

  // All scratch for the whole fit, allocated once: each problem's tiles own
  // consecutive runs of cache lines in one slab, plus the merged gradient.
  struct Run {
    std::size_t first_line = 0;  ///< the problem's first tile's slab line
    std::size_t tile_lines = 0;  ///< lines per tile: d + 1 sums, padded
    std::vector<double> grad;
    bool running = true;
  };
  std::vector<Run> runs(problems.size());
  std::size_t lines = 0;
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const std::size_t d = problems[p].x->cols();
    runs[p].first_line = lines;
    runs[p].tile_lines = (d + 1 + kLineDoubles - 1) / kLineDoubles;
    runs[p].grad.assign(d, 0.0);
    lines += problems[p].x->chunks() * runs[p].tile_lines;
    models[p].coef_.assign(d, 0.0);
    models[p].intercept_ = 0.0;
  }
  std::vector<SlabLine> slab(lines);
  auto partials = [&](std::size_t p, std::size_t chunk) {
    return slab[runs[p].first_line + chunk * runs[p].tile_lines].v;
  };

  struct Tile {
    std::size_t problem;
    std::size_t chunk;
  };
  std::vector<Tile> tiles;
  bool retired = true;  // the running set changed: rebuild the tile list
  for (int epoch = 0;; ++epoch) {
    for (std::size_t p = 0; p < problems.size(); ++p) {
      if (runs[p].running && epoch >= models[p].options_.epochs) {
        runs[p].running = false;
        retired = true;
      }
    }
    if (retired) {
      tiles.clear();
      for (std::size_t p = 0; p < problems.size(); ++p) {
        if (!runs[p].running) continue;
        for (std::size_t chunk = 0; chunk < problems[p].x->chunks(); ++chunk) {
          tiles.push_back({p, chunk});
        }
      }
      retired = false;
    }
    if (tiles.empty()) break;

    util::parallel_for(
        pool, tiles.size(), 1, [&](std::size_t t, std::size_t, std::size_t) {
          const Tile tile = tiles[t];
          const LogisticProblem& problem = problems[tile.problem];
          const LogisticRegression& model = models[tile.problem];
          tile_partials(*problem.x,
                        problem.y->data() + tile.chunk * kRowGrain, tile.chunk,
                        model.coef_.data(), model.intercept_,
                        partials(tile.problem, tile.chunk));
        });

    for (std::size_t p = 0; p < problems.size(); ++p) {
      if (!runs[p].running) continue;
      LogisticRegression& model = models[p];
      const LogisticOptions& options = model.options_;
      const std::size_t d = model.coef_.size();
      const double inv_n = 1.0 / static_cast<double>(problems[p].x->rows());
      std::vector<double>& grad = runs[p].grad;
      // Merge partials in ascending tile order — the fixed association that
      // keeps the fit independent of how tiles were scheduled.
      std::fill(grad.begin(), grad.end(), 0.0);
      double grad_b = 0.0;
      for (std::size_t chunk = 0; chunk < problems[p].x->chunks(); ++chunk) {
        const double* part = partials(p, chunk);
        for (std::size_t c = 0; c < d; ++c) grad[c] += part[c];
        grad_b += part[d];
      }
      double grad_norm2 = grad_b * inv_n * grad_b * inv_n;
      for (std::size_t c = 0; c < d; ++c) {
        grad[c] = grad[c] * inv_n + options.l2 * model.coef_[c];
        grad_norm2 += grad[c] * grad[c];
      }
      grad_b *= inv_n;
      for (std::size_t c = 0; c < d; ++c) {
        model.coef_[c] -= options.learning_rate * grad[c];
      }
      model.intercept_ -= options.learning_rate * grad_b;
      if (grad_norm2 < options.tolerance * options.tolerance) {
        runs[p].running = false;
        retired = true;
      }
    }
  }
}

void LogisticRegression::predict_proba_into(const Matrix& x,
                                            std::vector<double>& out,
                                            const util::ThreadPool* pool) const {
  if (!fitted()) throw std::logic_error("LogisticRegression: not fitted");
  if (x.cols() != coef_.size()) {
    throw std::invalid_argument("LogisticRegression::predict_proba: width mismatch");
  }
  out.resize(x.rows());
  const std::size_t d = coef_.size();
  util::parallel_for(pool, x.rows(), kRowGrain,
                     [&](std::size_t begin, std::size_t end, std::size_t) {
                       for (std::size_t r = begin; r < end; ++r) {
                         const double* xr = x.row(r);
                         double z = intercept_;
                         for (std::size_t c = 0; c < d; ++c) z += coef_[c] * xr[c];
                         out[r] = sigmoid(z);
                       }
                     });
}

std::vector<double> LogisticRegression::predict_proba(
    const Matrix& x, const util::ThreadPool* pool) const {
  std::vector<double> out;
  predict_proba_into(x, out, pool);
  return out;
}

std::vector<int> LogisticRegression::predict(const Matrix& x,
                                             const util::ThreadPool* pool) const {
  const std::vector<double> proba = predict_proba(x, pool);
  std::vector<int> out(proba.size());
  for (std::size_t i = 0; i < proba.size(); ++i) out[i] = proba[i] >= 0.5 ? 1 : 0;
  return out;
}

double LogisticRegression::accuracy(const Matrix& x, const std::vector<int>& y,
                                    const util::ThreadPool* pool) const {
  return accuracy(ColumnBlocks(x), y, pool);
}

double LogisticRegression::accuracy(const ColumnBlocks& x,
                                    const std::vector<int>& y,
                                    const util::ThreadPool* pool) const {
  if (!fitted()) throw std::logic_error("LogisticRegression: not fitted");
  if (x.cols() != coef_.size()) {
    throw std::invalid_argument("LogisticRegression::predict_proba: width mismatch");
  }
  if (x.rows() != y.size() || y.empty()) {
    throw std::invalid_argument("LogisticRegression::accuracy: size mismatch");
  }
  std::vector<std::size_t> correct(x.chunks(), 0);
  util::parallel_for(
      pool, x.chunks(), 1, [&](std::size_t chunk, std::size_t, std::size_t) {
        double z[kRowGrain];
        chunk_logits(x, chunk, coef_.data(), intercept_, z);
        const int* labels = y.data() + chunk * kRowGrain;
        for (std::size_t i = 0; i < x.chunk_rows(chunk); ++i) {
          correct[chunk] += (sigmoid(z[i]) >= 0.5 ? 1 : 0) == labels[i];
        }
      });
  std::size_t total = 0;
  for (const std::size_t count : correct) total += count;
  return static_cast<double>(total) / static_cast<double>(y.size());
}

std::vector<double> LogisticRegression::normalized_influence() const {
  if (!fitted()) throw std::logic_error("LogisticRegression: not fitted");
  std::vector<double> influence(coef_.size());
  double total = 0.0;
  for (std::size_t c = 0; c < coef_.size(); ++c) {
    influence[c] = std::abs(coef_[c]);
    total += influence[c];
  }
  if (total > 0.0) {
    for (double& v : influence) v /= total;
  }
  return influence;
}

}  // namespace omptune::ml
