#include "core/monte_carlo.h"

#include <algorithm>
#include <memory>
#include <string>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/workspace.h"

namespace cyclerank {
namespace {

/// Per-thread scratch: visit counters merged after the sharded simulation.
struct WalkWorkspace {
  std::vector<uint64_t> counts;
  uint64_t steps = 0;
};

/// Walks are partitioned into fixed shards of this many walks; each shard
/// owns an RNG stream. The shard structure depends only on `num_walks`, so
/// the estimate is reproducible at any thread count.
constexpr uint64_t kWalksPerShard = 16384;

/// One node's out-row, packed so a walk step makes one load: `targets`
/// points at the node's sorted successors in the graph's CSR array.
/// A pointer rather than a 32-bit offset keeps graphs with >= 2^32 edges
/// correct.
struct WalkRow {
  const NodeId* targets;
  uint32_t degree;
};

/// Each walk step draws the α test and then, on a non-dangling node, the
/// successor — the same draws in the same order as `NextBool(alpha)` and
/// `NextBounded(out_degree)`, so every output bit matches those calls.
template <MonteCarloEstimator kEstimator>
void RunWalkShard(const std::vector<WalkRow>& rows, NodeId reference,
                  uint64_t continue_below, uint32_t max_walk_length,
                  uint64_t num_walks, Rng rng, WalkWorkspace* ws) {
  constexpr bool kCountVisits =
      kEstimator == MonteCarloEstimator::kVisitFrequency;
  uint64_t* counts = ws->counts.data();
  uint64_t steps = 0;
  for (uint64_t w = 0; w < num_walks; ++w) {
    NodeId u = reference;
    uint32_t length = 0;
    while (true) {
      if constexpr (kCountVisits) {
        ++counts[u];
        ++steps;
      }
      if (length >= max_walk_length) break;
      if (!rng.NextBelow(continue_below)) break;  // teleport: walk ends
      const WalkRow row = rows[u];
      // Dangling: jump home and continue (same rule as power iteration).
      u = row.degree == 0 ? reference
                          : row.targets[rng.NextBounded(row.degree)];
      ++length;
    }
    if constexpr (!kCountVisits) {
      ++counts[u];
      ++steps;
    }
  }
  ws->steps += steps;
}

}  // namespace

Result<MonteCarloScores> ComputeMonteCarloPpr(
    const Graph& g, NodeId reference, const MonteCarloOptions& options) {
  if (!g.IsValidNode(reference)) {
    return Status::OutOfRange("MonteCarloPpr: reference node " +
                              std::to_string(reference) + " out of range");
  }
  if (!(options.alpha > 0.0) || !(options.alpha < 1.0)) {
    return Status::InvalidArgument("MonteCarloPpr: alpha must be in (0,1)");
  }
  if (options.num_walks == 0 || options.num_walks > kMaxMonteCarloWalks) {
    return Status::InvalidArgument(
        "MonteCarloPpr: num_walks must be in [1, 2^32]");
  }

  const NodeId n = g.num_nodes();
  const size_t num_shards =
      static_cast<size_t>((options.num_walks + kWalksPerShard - 1) /
                          kWalksPerShard);

  // Shard s draws from Rng(seed) advanced by s xoshiro jumps — 2^128 draws
  // apart, so streams never overlap and depend only on (seed, shard).
  std::vector<Rng> shard_rng;
  shard_rng.reserve(num_shards);
  Rng rng(options.seed);
  for (size_t s = 0; s < num_shards; ++s) {
    shard_rng.push_back(rng);
    rng.Jump();
  }

  std::vector<WalkRow> rows(n);
  for (NodeId u = 0; u < n; ++u) {
    const auto out = g.OutNeighbors(u);
    rows[u] = {out.data(), static_cast<uint32_t>(out.size())};
  }
  const uint64_t continue_below = Rng::BernoulliThreshold(options.alpha);
  const auto run_shard =
      options.estimator == MonteCarloEstimator::kVisitFrequency
          ? &RunWalkShard<MonteCarloEstimator::kVisitFrequency>
          : &RunWalkShard<MonteCarloEstimator::kEndpoint>;

  WorkspacePool<WalkWorkspace> workspaces([n] {
    auto ws = std::make_unique<WalkWorkspace>();
    ws->counts.assign(n, 0);
    return ws;
  });

  const uint32_t num_threads = ResolveThreadCount(options.num_threads);
  ThreadPool* pool = num_threads > 1 ? GlobalComputePool() : nullptr;
  ParallelFor(pool, num_shards, /*grain=*/1, num_threads,
              [&](size_t shard, size_t, size_t) {
                const uint64_t begin = shard * kWalksPerShard;
                const uint64_t walks =
                    std::min<uint64_t>(kWalksPerShard,
                                       options.num_walks - begin);
                auto ws = workspaces.Acquire();
                run_shard(rows, reference, continue_below,
                          options.max_walk_length, walks, shard_rng[shard],
                          ws.get());
              });

  // Integer merge: associative and commutative, hence independent of which
  // thread ran which shard.
  std::vector<uint64_t> counts(n, 0);
  uint64_t total_steps = 0;
  workspaces.ForEach([&](const WalkWorkspace& ws) {
    for (NodeId u = 0; u < n; ++u) counts[u] += ws.counts[u];
    total_steps += ws.steps;
  });

  MonteCarloScores result;
  result.total_steps = total_steps;
  result.scores.assign(n, 0.0);
  const double denom =
      options.estimator == MonteCarloEstimator::kVisitFrequency
          ? static_cast<double>(total_steps)
          : static_cast<double>(options.num_walks);
  if (denom > 0) {
    for (NodeId u = 0; u < n; ++u) {
      result.scores[u] = static_cast<double>(counts[u]) / denom;
    }
  }
  return result;
}

}  // namespace cyclerank
