// Order statistics, the metric list a run prints, and the environment
// stamp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/summary.hpp"

namespace kvbench {

/// kvscale::Percentile, but 0 for an empty sample (a window in which no
/// operation succeeded, which already fails the run).
inline double Percentile(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : kvscale::Percentile(values, q);
}
inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// The metrics of one run, in insertion order.
class MetricList {
 public:
  void Add(std::string name, double value, std::string unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;
  /// One aligned "name  value unit" line per metric.
  std::string ToTable() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

/// {"nproc":..,"compiler":..,"build_type":..,"loadavg_1m":..} at the
/// moment of the call.
std::string EnvironmentJson();

}  // namespace kvbench
