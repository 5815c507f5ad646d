#ifndef CYCLERANK_E2EBENCH_STATS_H_
#define CYCLERANK_E2EBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace cyclerank {
namespace e2ebench {

/// Fewest samples that must lie beyond a reported percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `basis_points` (5000 = p50,
/// 9900 = p99) among `n` samples: ceil(n * bp / 10000), in integers.
size_t NearestRank(size_t n, uint32_t basis_points);

/// Nearest-rank percentile of `samples`. Refuses (kFailedPrecondition)
/// when fewer than `kMinSamplesBeyond` samples lie above the rank, so a
/// p99 needs at least 1000 samples and a p50 at least 20.
Result<double> Percentile(std::vector<double> samples, uint32_t basis_points);

/// Middle value of `samples` (the mean of the two middle ones for an even
/// count); 0 for none.
double Median(std::vector<double> samples);

/// Median of `parts`, each a percentile of one part of a run; the first
/// refusal when any part's percentile was refused, or there are none.
Result<double> MedianOf(const std::vector<Result<double>>& parts);

/// Samples per window of `WindowedPercentile`: p99 of a window then has
/// exactly `kMinSamplesBeyond` samples beyond it.
inline constexpr size_t kWindow = 1000;

/// Percentile `basis_points` of each consecutive window of `kWindow`
/// samples of `in_order` (a trailing partial window is left out), and the
/// median of those. On a shared host, stalls come in episodes of a few
/// seconds that slow a tenth to a third of the requests in them. A plain
/// p99 of a run that meets one jumps two- to three-fold. The median over
/// windows moves only when episodes cover half the run. Refuses when there
/// is no whole window or a window's percentile is refused.
Result<double> WindowedPercentile(const std::vector<double>& in_order,
                                  uint32_t basis_points);

}  // namespace e2ebench
}  // namespace cyclerank

#endif  // CYCLERANK_E2EBENCH_STATS_H_
