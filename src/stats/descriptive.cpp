#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace omptune::stats {

// mean/stddev are single-pass Welford updates so the store's slice-wise
// aggregation reads each runtime column exactly once (two-pass stddev would
// double every column's memory traffic). Welford is also the numerically
// stable choice: the running mean keeps the accumulated terms centered.

MeanStd mean_stddev(const double* values, std::size_t count) {
  MeanStd result;
  result.count = count;
  double mean = 0.0;
  double m2 = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double delta = values[i] - mean;
    mean += delta / static_cast<double>(i + 1);
    m2 += delta * (values[i] - mean);
  }
  result.mean = mean;
  result.stddev =
      count < 2 ? 0.0 : std::sqrt(m2 / static_cast<double>(count - 1));
  return result;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean: empty input");
  return mean_stddev(values.data(), values.size()).mean;
}

double stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  return mean_stddev(values.data(), values.size()).stddev;
}

double min_value(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("min_value: empty input");
  return *std::min_element(values.begin(), values.end());
}

double max_value(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("max_value: empty input");
  return *std::max_element(values.begin(), values.end());
}

// Selection instead of a full sort: nth_element places the lower order
// statistic at `lo` with everything after it no smaller, so the next order
// statistic is the minimum of that tail. Both equal the sorted vector's
// [lo] and [hi] as values, and the interpolation expression is unchanged.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: empty input");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q out of [0,1]");
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double lo_value = *lo_it;
  const double hi_value = hi == lo ? lo_value : *std::min_element(lo_it + 1, values.end());
  return lo_value + frac * (hi_value - lo_value);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

Summary summarize(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("summarize: empty input");
  Summary s;
  s.count = values.size();
  const MeanStd ms = mean_stddev(values.data(), values.size());
  s.mean = ms.mean;
  s.stddev = ms.stddev;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  auto q = [&values](double p) {
    const double pos = p * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
  };
  s.q25 = q(0.25);
  s.median = q(0.5);
  s.q75 = q(0.75);
  return s;
}

Summary summarize(const double* values, std::size_t count) {
  return summarize(std::vector<double>(values, values + count));
}

}  // namespace omptune::stats
