#ifndef CYCLERANK_CORE_MONTE_CARLO_H_
#define CYCLERANK_CORE_MONTE_CARLO_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace cyclerank {

/// Which random-walk statistic estimates PPR.
enum class MonteCarloEstimator {
  /// Fraction of *all visited states* at each node. Unbiased for the PPR
  /// stationary distribution; variance shrinks with total walk length.
  kVisitFrequency,

  /// Fraction of walks *terminating* at each node (Avrachenkov et al.).
  /// Cheaper bookkeeping, higher variance on low-α settings.
  kEndpoint,
};

/// Most walks one call accepts. Every walk shard's RNG is derived before
/// the first walk runs, so the cap bounds that set-up at 2^18 shards.
inline constexpr uint64_t kMaxMonteCarloWalks = uint64_t{1} << 32;

/// Options for Monte-Carlo Personalized PageRank.
struct MonteCarloOptions {
  /// Damping factor α = continuation probability of the walk.
  double alpha = 0.85;

  /// Number of independent walks started at the reference node, in
  /// [1, kMaxMonteCarloWalks].
  uint64_t num_walks = 100000;

  /// PRNG seed; identical seeds reproduce identical estimates.
  uint64_t seed = 42;

  MonteCarloEstimator estimator = MonteCarloEstimator::kVisitFrequency;

  /// Safety bound on a single walk's length (dangling-free cycles cannot
  /// trap a walk since termination is geometric, but a cap keeps worst-case
  /// latency bounded).
  uint32_t max_walk_length = 10000;

  /// Worker threads for the walk shards, scheduled on the process-wide
  /// compute pool. 1 = run on the calling thread only; 0 = use every pool
  /// worker. Walks are split into fixed-size shards, each driven by its
  /// own RNG stream derived from `seed` (successive xoshiro 2^128 jumps),
  /// and visit counts are merged with integer addition — so estimates are
  /// **bit-identical at every thread count** for a given seed.
  uint32_t num_threads = 1;
};

/// Outcome of a Monte-Carlo PPR estimation.
struct MonteCarloScores {
  /// Estimated PPR distribution (sums to 1 up to rounding).
  std::vector<double> scores;
  uint64_t total_steps = 0;  ///< states visited across all walks
};

/// Simulates `num_walks` α-terminated random walks from `reference`
/// ("simulating a stochastic process in which a user follows random paths",
/// §II) and estimates PPR from the chosen statistic. A walk reaching a
/// dangling node teleports back to the reference node, mirroring the
/// power-iteration dangling rule, so the estimate converges to the same
/// distribution as `ComputePersonalizedPageRank`.
Result<MonteCarloScores> ComputeMonteCarloPpr(
    const Graph& g, NodeId reference, const MonteCarloOptions& options = {});

}  // namespace cyclerank

#endif  // CYCLERANK_CORE_MONTE_CARLO_H_
