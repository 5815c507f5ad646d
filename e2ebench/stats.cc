#include "stats.h"

#include <algorithm>
#include <string>
#include <utility>

namespace cyclerank {
namespace e2ebench {

size_t NearestRank(size_t n, uint32_t basis_points) {
  const size_t rank = (n * basis_points + 9999) / 10000;
  return rank == 0 ? 1 : rank;
}

Result<double> Percentile(std::vector<double> samples, uint32_t basis_points) {
  const size_t n = samples.size();
  if (basis_points == 0 || basis_points >= 10000) {
    return Status::InvalidArgument("percentile must lie in (0, 10000) bp");
  }
  const size_t rank = NearestRank(n, basis_points);
  if (n < rank || n - rank < kMinSamplesBeyond) {
    return Status::FailedPrecondition(
        "percentile " + std::to_string(basis_points) + " bp of " +
        std::to_string(n) + " samples has fewer than " +
        std::to_string(kMinSamplesBeyond) + " samples beyond it");
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

Result<double> WindowedPercentile(const std::vector<double>& in_order,
                                  uint32_t basis_points) {
  std::vector<double> per_window;
  for (size_t begin = 0; begin + kWindow <= in_order.size(); begin += kWindow) {
    CYCLERANK_ASSIGN_OR_RETURN(
        double p, Percentile(std::vector<double>(in_order.begin() + begin,
                                                 in_order.begin() + begin +
                                                     kWindow),
                             basis_points));
    per_window.push_back(p);
  }
  if (per_window.empty()) {
    return Status::FailedPrecondition(
        std::to_string(in_order.size()) + " samples make no window of " +
        std::to_string(kWindow));
  }
  return Median(std::move(per_window));
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Result<double> MedianOf(const std::vector<Result<double>>& parts) {
  if (parts.empty()) return Status::FailedPrecondition("no parts");
  std::vector<double> values;
  for (const Result<double>& part : parts) {
    if (!part.ok()) return part.status();
    values.push_back(*part);
  }
  return Median(std::move(values));
}

}  // namespace e2ebench
}  // namespace cyclerank
