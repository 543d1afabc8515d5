#include "ml/features.hpp"

#include <cmath>

#include "apps/application.hpp"
#include "util/rng.hpp"

namespace omptune::ml {

double encode_places(arch::PlacesKind places) {
  switch (places) {
    case arch::PlacesKind::Unset: return 0;
    case arch::PlacesKind::Threads: return 1;
    case arch::PlacesKind::Cores: return 2;
    case arch::PlacesKind::LLCaches: return 3;
    case arch::PlacesKind::Sockets: return 4;
    case arch::PlacesKind::NumaDomains: return 5;
  }
  return 0;
}

// Ordered from "no binding" through increasingly concentrated placements,
// with master (all threads on the primary's place) at the extreme — the
// naive numeric scheme still needs a roughly monotone axis for a linear
// separating boundary to pick the variable up.
double encode_bind(arch::BindKind bind) {
  switch (bind) {
    case arch::BindKind::Unset: return 0;
    case arch::BindKind::False_: return 1;
    case arch::BindKind::Spread: return 2;
    case arch::BindKind::Close: return 3;
    case arch::BindKind::True_: return 4;
    case arch::BindKind::Master: return 5;
  }
  return 0;
}

double encode_schedule(rt::ScheduleKind schedule) {
  switch (schedule) {
    case rt::ScheduleKind::Static: return 0;
    case rt::ScheduleKind::Dynamic: return 1;
    case rt::ScheduleKind::Guided: return 2;
    case rt::ScheduleKind::Auto: return 3;
  }
  return 0;
}

double encode_library(rt::LibraryMode library) {
  switch (library) {
    case rt::LibraryMode::Serial: return 0;
    case rt::LibraryMode::Throughput: return 1;
    case rt::LibraryMode::Turnaround: return 2;
  }
  return 0;
}

double encode_blocktime(std::int64_t blocktime_ms) {
  if (blocktime_ms == rt::kBlocktimeInfinite) return 2;
  if (blocktime_ms == 0) return 0;
  return 1;  // the default 200 and other finite values
}

double encode_reduction(rt::ReductionMethod method) {
  switch (method) {
    case rt::ReductionMethod::Default: return 0;
    case rt::ReductionMethod::Tree: return 1;
    case rt::ReductionMethod::Critical: return 2;
    case rt::ReductionMethod::Atomic: return 3;
  }
  return 0;
}

double encode_align(int align_bytes) {
  return align_bytes > 0 ? std::log2(static_cast<double>(align_bytes)) : 6.0;
}

double encode_input(const std::string& input_name) {
  // Ordinal by conventional size-name ordering; unknown names hash to a
  // stable small bucket (naive placeholder encoding, as in the paper).
  if (input_name == "S" || input_name == "small") return 0;
  if (input_name == "W" || input_name == "medium" || input_name == "default") return 1;
  if (input_name == "A" || input_name == "large") return 2;
  return static_cast<double>(util::stable_hash(input_name) % 8u) + 3.0;
}

double encode_arch(const std::string& arch_name) {
  if (arch_name == "a64fx") return 0;
  if (arch_name == "skylake") return 1;
  if (arch_name == "milan") return 2;
  return static_cast<double>(util::stable_hash(arch_name) % 8u) + 3.0;
}

double encode_app(const std::string& app_name) {
  const auto& apps = apps::registry();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (apps[i]->name() == app_name) return static_cast<double>(i);
  }
  return static_cast<double>(util::stable_hash(app_name) % 16u) +
         static_cast<double>(apps.size());
}

FeatureEncoder::FeatureEncoder(FeatureOptions options) : options_(options) {
  if (options_.include_architecture) names_.push_back("Architecture");
  if (options_.include_application) names_.push_back("Application");
  if (options_.include_input_size) names_.push_back("Input Size");
  if (options_.include_threads) names_.push_back("OMP_NUM_THREADS");
  names_.push_back("OMP_PLACES");
  names_.push_back("OMP_PROC_BIND");
  names_.push_back("OMP_SCHEDULE");
  names_.push_back("KMP_LIBRARY");
  names_.push_back("KMP_BLOCKTIME");
  names_.push_back("KMP_FORCE_REDUCTION");
  names_.push_back("KMP_ALIGN_ALLOC");
}

std::vector<double> FeatureEncoder::encode_sample(const sweep::Sample& s) const {
  std::vector<double> row(names_.size());
  encode_sample_into(s, row.data());
  return row;
}

void FeatureEncoder::encode_sample_into(const sweep::Sample& s,
                                        double* out) const {
  encode_into(s.arch, s.app, s.input, s.threads, s.config, out);
}

void FeatureEncoder::encode_into(const std::string& arch, const std::string& app,
                                 const std::string& input, int threads,
                                 const rt::RtConfig& config, double* out) const {
  if (options_.include_architecture) *out++ = encode_arch(arch);
  if (options_.include_application) *out++ = encode_app(app);
  if (options_.include_input_size) *out++ = encode_input(input);
  if (options_.include_threads) *out++ = static_cast<double>(threads);
  *out++ = encode_places(config.places);
  *out++ = encode_bind(config.bind);
  *out++ = encode_schedule(config.schedule);
  *out++ = encode_library(config.library);
  *out++ = encode_blocktime(config.blocktime_ms);
  *out++ = encode_reduction(config.reduction);
  *out = encode_align(config.align_alloc);
}

Matrix FeatureEncoder::encode(const sweep::Dataset& dataset) const {
  Matrix x(dataset.size(), num_features());
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    encode_sample_into(dataset.samples()[r], x.row(r));
  }
  return x;
}

std::vector<int> FeatureEncoder::labels(const sweep::Dataset& dataset,
                                        double threshold) {
  std::vector<int> y;
  y.reserve(dataset.size());
  for (const sweep::Sample& s : dataset.samples()) {
    y.push_back(label(s, threshold));
  }
  return y;
}

}  // namespace omptune::ml
