#ifndef CYCLERANK_E2EBENCH_REPORT_H_
#define CYCLERANK_E2EBENCH_REPORT_H_

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "platform/result_io.h"

namespace cyclerank {
namespace e2ebench {

/// Shortest text that reads back as exactly `value`.
inline std::string JsonNumber(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

/// A run's outcome, printed as one JSON object on the last line of
/// standard output; run.py turns it into the benchmark's result line.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::string maps_to;  ///< "<end-to-end metric> on <workload>", or empty
  };

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failures, for humans
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> provenance;
  std::map<std::string, double> counts;  ///< sample counts and the like

  void Fail(std::string error) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(error));
  }

  std::string ToJson() const {
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
      out += first ? "" : ", ";
      first = false;
      out += "\"" + JsonEscape(name) + "\": {\"value\": " +
             JsonNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) +
             "\"";
      if (!m.maps_to.empty()) {
        out += ", \"maps_to\": \"" + JsonEscape(m.maps_to) + "\"";
      }
      out += "}";
    }
    out += "}, \"provenance\": {";
    first = true;
    for (const auto& [key, value] : provenance) {
      out += first ? "" : ", ";
      first = false;
      out += "\"" + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
    }
    out += "}, \"counts\": {";
    first = true;
    for (const auto& [key, value] : counts) {
      out += first ? "" : ", ";
      first = false;
      out += "\"" + JsonEscape(key) + "\": " + JsonNumber(value);
    }
    out += "}, \"errors\": [";
    for (size_t i = 0; i < errors.size(); ++i) {
      out += (i > 0 ? ", \"" : "\"") + JsonEscape(errors[i]) + "\"";
    }
    return out + "]}";
  }
};

}  // namespace e2ebench
}  // namespace cyclerank

#endif  // CYCLERANK_E2EBENCH_REPORT_H_
