#ifndef CYCLERANK_CORE_PAGERANK_H_
#define CYCLERANK_CORE_PAGERANK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace cyclerank {

/// Options for the PageRank / Personalized PageRank power iteration (§II).
struct PageRankOptions {
  /// Damping factor α — the probability of following a link versus
  /// teleporting ("generally assumed to be 0.85", §II; the paper's Table I
  /// uses α=0.3 for PPR).
  double alpha = 0.85;

  /// Stop when the L1 change between successive iterates drops below this.
  double tolerance = 1e-10;

  /// Hard iteration cap; the run reports `converged=false` when hit.
  uint32_t max_iterations = 200;

  /// Teleport set: empty → uniform teleport (classic PageRank); otherwise
  /// teleporting is "directed to a specific node or set of nodes" (§II,
  /// Personalized PageRank). Duplicate nodes are invalid.
  std::vector<NodeId> teleport_set;

  /// Worker threads for the pull phase, scheduled on the process-wide
  /// compute pool (`GlobalComputePool`). 1 = run on the calling thread
  /// only; 0 = use every pool worker. The iteration is chunked on a fixed
  /// grain and per-chunk residuals are combined in a deterministic tree
  /// reduction, so scores and iteration counts are **bit-identical at
  /// every thread count**.
  uint32_t num_threads = 1;
};

/// Outcome of a PageRank computation.
struct PageRankScores {
  /// Stationary probabilities, one per node; sums to 1.
  std::vector<double> scores;
  uint32_t iterations = 0;
  bool converged = false;
  /// Final L1 residual.
  double residual = 0.0;
};

/// Computes PageRank (uniform teleport) or Personalized PageRank (teleport
/// restricted to `options.teleport_set`) by power iteration:
///
///   p' = α·(Pᵀ p + dangling_mass·v) + (1-α)·v
///
/// where `v` is the teleport distribution. Mass leaking through dangling
/// nodes (out-degree 0) re-enters through `v`, so `p` stays a probability
/// distribution even on graphs with sinks.
///
/// Errors: InvalidArgument for α outside (0,1), non-positive tolerance, an
/// empty graph, or an out-of-range/duplicate teleport node.
Result<PageRankScores> ComputePageRank(const Graph& g,
                                       const PageRankOptions& options = {});

/// Personalized PageRank with a single reference node — the common demo
/// case (§IV-C takes "a reference node r"). Equivalent to `ComputePageRank`
/// with `teleport_set = {reference}`.
Result<PageRankScores> ComputePersonalizedPageRank(
    const Graph& g, NodeId reference, const PageRankOptions& options = {});

namespace internal {

/// Shared kernel: when `reverse` is true the iteration runs on the
/// transposed adjacency (used by CheiRank without materializing Gᵀ).
Result<PageRankScores> PowerIteration(const Graph& g,
                                      const PageRankOptions& options,
                                      bool reverse);

}  // namespace internal

}  // namespace cyclerank

#endif  // CYCLERANK_CORE_PAGERANK_H_
