#include "core/pagerank.h"

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/parallel_for.h"

namespace cyclerank {
namespace internal {

Result<PageRankScores> PowerIteration(const Graph& g,
                                      const PageRankOptions& options,
                                      bool reverse) {
  const NodeId n = g.num_nodes();
  if (n == 0) return Status::InvalidArgument("PageRank: empty graph");
  if (!(options.alpha > 0.0) || !(options.alpha < 1.0)) {
    return Status::InvalidArgument("PageRank: alpha must be in (0,1), got " +
                                   std::to_string(options.alpha));
  }
  if (!(options.tolerance > 0.0)) {
    return Status::InvalidArgument("PageRank: tolerance must be positive");
  }
  if (options.max_iterations == 0) {
    return Status::InvalidArgument("PageRank: max_iterations must be >= 1");
  }

  // Teleport distribution v.
  std::vector<double> teleport(n, 0.0);
  if (options.teleport_set.empty()) {
    const double uniform = 1.0 / static_cast<double>(n);
    teleport.assign(n, uniform);
  } else {
    const double mass = 1.0 / static_cast<double>(options.teleport_set.size());
    for (NodeId t : options.teleport_set) {
      if (!g.IsValidNode(t)) {
        return Status::OutOfRange("PageRank: teleport node " +
                                  std::to_string(t) + " out of range");
      }
      if (teleport[t] != 0.0) {
        return Status::InvalidArgument(
            "PageRank: duplicate teleport node " + std::to_string(t));
      }
      teleport[t] = mass;
    }
  }

  // Hoisted out of the iteration loop: the dangling-node list (replacing
  // an O(n) scan per iteration) and the inverse effective out-degree
  // (replacing a division per edge). A dangling node's inverse degree is 0
  // so its contribution term vanishes without a branch in the edge loop.
  std::vector<double> inv_degree(n, 0.0);
  std::vector<NodeId> dangling;
  for (NodeId u = 0; u < n; ++u) {
    const uint32_t degree = reverse ? g.InDegree(u) : g.OutDegree(u);
    if (degree == 0) {
      dangling.push_back(u);
    } else {
      inv_degree[u] = 1.0 / static_cast<double>(degree);
    }
  }

  const double alpha = options.alpha;
  std::vector<double> p(teleport);  // start from the teleport distribution
  std::vector<double> next(n, 0.0);
  std::vector<double> contrib(n, 0.0);  // p[u] / degree(u), per iteration

  // Fixed-grain chunking: boundaries depend only on n, so per-chunk
  // residuals — combined below in a deterministic tree reduction — make the
  // output bit-identical at every thread count.
  constexpr size_t kPullGrain = 2048;
  const uint32_t num_threads = ResolveThreadCount(options.num_threads);
  ThreadPool* pool = num_threads > 1 ? GlobalComputePool() : nullptr;
  std::vector<double> chunk_l1(NumChunks(n, kPullGrain), 0.0);

  PageRankScores result;
  for (uint32_t iter = 1; iter <= options.max_iterations; ++iter) {
    // Mass parked on dangling nodes re-enters via the teleport vector.
    // Summed in ascending node order over the precomputed list: O(|D|),
    // deterministic.
    double dangling_mass = 0.0;
    for (NodeId u : dangling) dangling_mass += p[u];

    ParallelFor(pool, n, kPullGrain, num_threads,
                [&](size_t chunk, size_t begin, size_t end) {
                  for (size_t u = begin; u < end; ++u) {
                    contrib[u] = p[u] * inv_degree[u];
                  }
                  (void)chunk;
                });

    ParallelFor(
        pool, n, kPullGrain, num_threads,
        [&](size_t chunk, size_t begin, size_t end) {
          double l1 = 0.0;
          for (size_t v = begin; v < end; ++v) {
            double inflow = 0.0;
            // Pull along in-edges of v under the chosen direction.
            const NodeId node = static_cast<NodeId>(v);
            for (NodeId u : reverse ? g.OutNeighbors(node)
                                    : g.InNeighbors(node)) {
              inflow += contrib[u];
            }
            const double value = alpha * (inflow + dangling_mass * teleport[v]) +
                                 (1.0 - alpha) * teleport[v];
            l1 += std::fabs(value - p[v]);
            next[v] = value;
          }
          chunk_l1[chunk] = l1;
        });

    const double l1_change = DeterministicSum(chunk_l1);
    p.swap(next);
    result.iterations = iter;
    result.residual = l1_change;
    if (l1_change < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.scores = std::move(p);
  return result;
}

}  // namespace internal

Result<PageRankScores> ComputePageRank(const Graph& g,
                                       const PageRankOptions& options) {
  return internal::PowerIteration(g, options, /*reverse=*/false);
}

Result<PageRankScores> ComputePersonalizedPageRank(
    const Graph& g, NodeId reference, const PageRankOptions& options) {
  if (!g.IsValidNode(reference)) {
    return Status::OutOfRange("PersonalizedPageRank: reference node " +
                              std::to_string(reference) + " out of range");
  }
  PageRankOptions personalized = options;
  personalized.teleport_set = {reference};
  return internal::PowerIteration(g, personalized, /*reverse=*/false);
}

}  // namespace cyclerank
