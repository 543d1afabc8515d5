#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "arch/cpu_arch.hpp"

namespace perfbench {

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

// ---- Result ----------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics_[i].name) + ": {\"value\": " +
           json_number(metrics_[i].value) +
           ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

// ---- Tracer ----------------------------------------------------------------

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans nest (ScopedSpan), so the closing span is the innermost one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double Tracer::total_s(const std::string& name) const {
  std::int64_t total_ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= 0) total_ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total_ns) * 1e-9;
}

void Tracer::write(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << json_string(span.name)
        << ", \"start_ns\": " << span.start_ns << ", \"end_ns\": " << span.end_ns
        << ", \"parent\": " << span.parent << "}\n";
  }
}

// ---- resources -------------------------------------------------------------

CpuTimes cpu_times() {
  CpuTimes times;
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    times.self_s = timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
  }
  if (::getrusage(RUSAGE_CHILDREN, &usage) == 0) {
    times.children_s = timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
  }
  return times;
}

double peak_rss_mb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- digests ---------------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Digest& Digest::add(std::string_view text) {
  for (const char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ull;
  }
  return add(static_cast<std::uint64_t>(text.size()));
}

Digest& Digest::add(std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (value >> (8 * byte)) & 0xffu;
    state_ *= 0x100000001b3ull;
  }
  return *this;
}

Digest& Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return add(bits);
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

std::uint64_t dataset_set_digest(const omptune::sweep::Dataset& dataset,
                                 const std::string& arch) {
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  for (const omptune::sweep::Sample& s : dataset.samples()) {
    if (!arch.empty() && s.arch != arch) continue;
    ++count;
    Digest d;
    d.add(omptune::sweep::sample_identity(s))
        .add(static_cast<std::uint64_t>(s.status))
        .add(static_cast<std::uint64_t>(s.is_default))
        .add(s.mean_runtime)
        .add(s.default_runtime)
        .add(s.speedup)
        .add(static_cast<std::uint64_t>(s.runtimes.size()));
    for (const double r : s.runtimes) d.add(r);
    sum += d.value();
  }
  return mix64(sum ^ mix64(count));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---- inputs and references -------------------------------------------------

std::uint64_t study_seed(std::uint64_t reference_seed) {
  return mix64(0x0417D5EEDull + reference_seed);
}

omptune::sweep::StudyPlan study_plan(bool mini) {
  return mini ? omptune::sweep::StudyPlan::mini_plan(3, 24)
              : omptune::sweep::StudyPlan::paper_plan();
}

omptune::sweep::StudyPlan fleet_plan(bool mini) {
  omptune::sweep::StudyPlan plan = study_plan(mini);
  std::erase_if(plan.arch_plans, [](const omptune::sweep::ArchPlan& arch_plan) {
    return omptune::arch::to_string(arch_plan.arch) != kFleetArch;
  });
  return plan;
}

References::References(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string size, seed, field, value;
    if (fields >> size >> seed >> field >> value) {
      values_[size + " " + seed + " " + field] = value;
    }
  }
}

std::string References::get(bool mini, std::uint64_t seed,
                            const std::string& field) const {
  const auto it = values_.find(std::string(mini ? "mini" : "full") + " " +
                               std::to_string(seed) + " " + field);
  return it == values_.end() ? std::string() : it->second;
}

void print_reference(bool mini, std::uint64_t seed, const std::string& field,
                     const std::string& value) {
  std::printf("%s %" PRIu64 " %s %s\n", mini ? "mini" : "full", seed,
              field.c_str(), value.c_str());
}

}  // namespace perfbench
