#ifndef CYCLERANK_CORE_CYCLERANK_H_
#define CYCLERANK_CORE_CYCLERANK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/scoring.h"
#include "graph/graph.h"

namespace cyclerank {

/// Options for CycleRank (paper §II, Eq. (1); Consonni, Laniado & Montresor,
/// Proc. Royal Society A 2020).
struct CycleRankOptions {
  /// K — "a parameter representing the maximum length considered for
  /// cycles" (Eq. (1)). Must be ≥ 2. The paper uses K=3 on Wikipedia and
  /// K=5 on the Amazon co-purchase graph.
  uint32_t max_cycle_length = 3;

  /// σ — the scoring function weighting a cycle of length n. "For
  /// Wikipedia we have experimentally found that the best choice … is an
  /// exponential damping σ = e^-n" (§II).
  ScoringFunction scoring = ScoringFunction::kExponential;

  /// Distance-based search pruning (a backward BFS bounds every DFS branch
  /// by its distance back to the reference). Disabling it recovers
  /// the naive bounded DFS — same counts, more work — and exists for the
  /// A2 ablation bench.
  bool use_pruning = true;

  /// Safety cap on enumerated cycles; 0 = unlimited. When hit, the run
  /// stops early and `truncated` is set (scores are then a lower bound).
  uint64_t max_cycles = 0;

  /// When true, `cycle_counts_per_node` is populated (length-stratified
  /// per-node counts c_{r,n}(i)); costs O(K·n) extra memory.
  bool collect_per_node_counts = false;

  /// Number of worker threads, scheduled on the process-wide compute pool
  /// (`GlobalComputePool`); 0 = use every pool worker. The enumeration is
  /// partitioned by the reference node's first-hop branches (each simple
  /// cycle through r belongs to exactly one branch, so partial results sum
  /// without double counting), and every thread count — including 1 —
  /// runs the same branch partition with partials merged in ascending
  /// first-hop order. Scores, counts, and the work metric are therefore
  /// **bit-identical at every thread count**. Branch enumeration uses
  /// reusable per-thread workspaces (epoch-stamped visited set, sparse
  /// touched-node accumulators), so a query costs memory proportional to
  /// the nodes reached, not O(out_degree × n). The backward pruning BFS
  /// shares this budget (it runs level-synchronously on the frontier
  /// engine). Ignored (single enumeration) when `max_cycles != 0`, since
  /// a global cap cannot be enforced exactly across concurrent branches.
  uint32_t num_threads = 1;
};

/// Outcome of a CycleRank computation.
struct CycleRankScores {
  /// CR_{r,K}(i) per node; 0 for nodes on no cycle through r. The
  /// reference node r holds the maximum ("by definition, the reference
  /// node gets the maximum Cyclerank score", §II).
  std::vector<double> scores;

  /// Total number of simple cycles through r of length ∈ [2, K].
  uint64_t total_cycles = 0;

  /// `cycles_by_length[n]` = number of length-n cycles (indices 0 and 1
  /// always 0; size K+1).
  std::vector<uint64_t> cycles_by_length;

  /// c_{r,n}(i): `cycle_counts_per_node[n][i]`, only when
  /// `collect_per_node_counts` was set (size (K+1) × n, rows 0,1 zero).
  std::vector<std::vector<uint64_t>> cycle_counts_per_node;

  /// Number of DFS node expansions — the work metric compared by the
  /// pruning ablation.
  uint64_t dfs_expansions = 0;

  /// True when `max_cycles` stopped the enumeration early.
  bool truncated = false;
};

/// Computes CycleRank scores with respect to `reference`:
///
///   CR_{r,K}(i) = Σ_{n=2..K} σ(n) · c_{r,n}(i)
///
/// where c_{r,n}(i) is the number of simple cycles of length n containing
/// both r and i. Enumeration is a depth-first traversal of simple paths
/// rooted at r; with pruning enabled, a node v is expanded at depth d only
/// if d + dist(v→r) ≤ K, where dist(v→r) comes from one backward BFS.
///
/// Determinism: neighbors are visited in ascending id order, so scores and
/// counts are identical across runs and platforms.
///
/// Errors: OutOfRange for an invalid reference; InvalidArgument for K < 2.
Result<CycleRankScores> ComputeCycleRank(const Graph& g, NodeId reference,
                                         const CycleRankOptions& options = {});

}  // namespace cyclerank

#endif  // CYCLERANK_CORE_CYCLERANK_H_
