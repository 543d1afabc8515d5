#pragma once

// Feature encoding of sweep samples for the linear models.
//
// The paper uses a "naive numeric scheme": every environment variable maps
// to a small integer (its index in the value set), input size and thread
// count enter as numbers, and — when data is grouped across applications or
// architectures — application and architecture become numeric placeholder
// features as well. Standardization happens downstream (StandardScaler).

#include <string>
#include <vector>

#include "ml/linalg.hpp"
#include "sweep/dataset.hpp"

namespace omptune::ml {

struct FeatureOptions {
  bool include_architecture = false;  ///< per-application grouping (Fig 2)
  bool include_application = false;   ///< per-architecture grouping (Fig 3)
  bool include_input_size = true;
  bool include_threads = true;
};

class FeatureEncoder {
 public:
  explicit FeatureEncoder(FeatureOptions options = {});

  /// Column names in encoding order. The environment variables use the
  /// paper's spellings.
  const std::vector<std::string>& names() const { return names_; }
  std::size_t num_features() const { return names_.size(); }

  /// Encode a dataset into a feature matrix (one row per sample).
  Matrix encode(const sweep::Dataset& dataset) const;

  /// Encode one sample.
  std::vector<double> encode_sample(const sweep::Sample& sample) const;

  /// Encode one sample into out[0, num_features()).
  void encode_sample_into(const sweep::Sample& sample, double* out) const;

  /// Encode one row given as its fields (a store slice row has no Sample).
  void encode_into(const std::string& arch, const std::string& app,
                   const std::string& input, int threads,
                   const rt::RtConfig& config, double* out) const;

  /// Optimal / sub-optimal labels: speedup > threshold (paper: 1.01).
  static std::vector<int> labels(const sweep::Dataset& dataset,
                                 double threshold = 1.01);

  /// One row's label from its speedup.
  static int label(double speedup, double threshold = 1.01) {
    return speedup > threshold ? 1 : 0;
  }

  /// One sample's label.
  static int label(const sweep::Sample& sample, double threshold = 1.01) {
    return label(sample.speedup, threshold);
  }

 private:
  FeatureOptions options_;
  std::vector<std::string> names_;
};

/// Numeric encodings of the categorical values (indices into the paper's
/// value sets; exposed for tests).
double encode_places(arch::PlacesKind places);
double encode_bind(arch::BindKind bind);
double encode_schedule(rt::ScheduleKind schedule);
double encode_library(rt::LibraryMode library);
double encode_blocktime(std::int64_t blocktime_ms);
double encode_reduction(rt::ReductionMethod method);
double encode_align(int align_bytes);
double encode_input(const std::string& input_name);
double encode_arch(const std::string& arch_name);
double encode_app(const std::string& app_name);

}  // namespace omptune::ml
