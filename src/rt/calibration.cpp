#include "rt/calibration.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/fs.hpp"

namespace omptune::rt {

namespace {

constexpr const char* kVersionLine = "omptune-calibration v1";
constexpr const char* kBarrierPrefix = "barrier.";

/// Named scalar fields, in serialization order.
struct Field {
  const char* name;
  double CalibrationTable::* member;
};

const std::vector<Field>& fields() {
  static const std::vector<Field> kFields = {
      {"idle_active_us", &CalibrationTable::idle_active_us},
      {"idle_yield_factor", &CalibrationTable::idle_yield_factor},
      {"region_active_base_us", &CalibrationTable::region_active_base_us},
      {"region_active_per_thread_us",
       &CalibrationTable::region_active_per_thread_us},
      {"region_spin_base_us", &CalibrationTable::region_spin_base_us},
      {"region_spin_per_thread_us",
       &CalibrationTable::region_spin_per_thread_us},
      {"region_spin_sleep_frac", &CalibrationTable::region_spin_sleep_frac},
      {"region_passive_per_thread_us",
       &CalibrationTable::region_passive_per_thread_us},
      {"chunk_grab_us", &CalibrationTable::chunk_grab_us},
      {"reduction_hop_base_us", &CalibrationTable::reduction_hop_base_us},
      {"reduction_hop_numa_us", &CalibrationTable::reduction_hop_numa_us},
      {"park_unpark_us", &CalibrationTable::park_unpark_us},
      {"condvar_roundtrip_us", &CalibrationTable::condvar_roundtrip_us},
      {"cas_contended_us", &CalibrationTable::cas_contended_us},
      {"fetch_add_contended_us", &CalibrationTable::fetch_add_contended_us},
      {"lock_acquire_us", &CalibrationTable::lock_acquire_us},
  };
  return kFields;
}

double parse_double(const std::string& text, const std::string& line) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size()) {
      throw std::invalid_argument("trailing characters");
    }
    return value;
  } catch (const std::exception&) {
    throw std::runtime_error("calibration: malformed value in line: " + line);
  }
}

std::string format_double(double value) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return out.str();
}

}  // namespace

CalibrationTable CalibrationTable::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;

  // First non-blank, non-comment line must be the version marker.
  bool versioned = false;
  CalibrationTable table;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!versioned) {
      if (line != kVersionLine) {
        throw std::runtime_error(
            "calibration: unsupported version line: " + line);
      }
      versioned = true;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("calibration: malformed line: " + line);
    }
    const std::string key = line.substr(0, eq);
    const double value = parse_double(line.substr(eq + 1), line);

    if (key.rfind(kBarrierPrefix, 0) == 0) {
      table.barrier_phase_us[key.substr(std::string(kBarrierPrefix).size())] =
          value;
      continue;
    }
    bool known = false;
    for (const Field& field : fields()) {
      if (key == field.name) {
        table.*(field.member) = value;
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::runtime_error("calibration: unknown key: " + key);
    }
  }
  if (!versioned) {
    throw std::runtime_error("calibration: missing version line");
  }
  return table;
}

CalibrationTable CalibrationTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("calibration: cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

std::string CalibrationTable::serialize() const {
  std::ostringstream out;
  out << kVersionLine << "\n";
  for (const Field& field : fields()) {
    out << field.name << "=" << format_double(this->*(field.member)) << "\n";
  }
  for (const auto& [key, value] : barrier_phase_us) {
    out << kBarrierPrefix << key << "=" << format_double(value) << "\n";
  }
  return out.str();
}

void CalibrationTable::save(const std::string& path) const {
  util::atomic_write_file(path, serialize());
}

bool CalibrationTable::operator==(const CalibrationTable& other) const {
  for (const Field& field : fields()) {
    if (this->*(field.member) != other.*(field.member)) return false;
  }
  return barrier_phase_us == other.barrier_phase_us;
}

}  // namespace omptune::rt
