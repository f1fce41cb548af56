#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/escape.hpp"

namespace kvbench {
namespace {

/// A number with all its digits; JSON has no NaN or infinity, and no
/// metric here can be one, so those print as 0.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void MetricList::Add(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

std::string MetricList::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += kvscale::JsonQuote(entries_[i].name) + ": {\"value\": " +
           JsonNumber(entries_[i].value) +
           ", \"unit\": " + kvscale::JsonQuote(entries_[i].unit) + "}";
  }
  return out + "}";
}

std::string MetricList::ToTable() const {
  std::string out;
  for (const Entry& e : entries_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-30s %14.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += line;
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string EnvironmentJson() {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) < 0) load[0] = -1.0;
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + kvscale::JsonQuote(KVBENCH_CXX_COMPILER) +
         ", \"build_type\": " + kvscale::JsonQuote(KVBENCH_BUILD_TYPE) +
         ", \"loadavg_1m\": " + JsonNumber(load[0]) + "}";
}

}  // namespace kvbench
