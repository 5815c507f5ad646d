// Ablation A2 — CycleRank search pruning (`CycleRankOptions::use_pruning`).
// The distance-bounded DFS must produce byte-identical scores while
// expanding far fewer states than the naive bounded DFS. This bench reports
// the expansion counts, wall-clock times and the speedup across K.

#include <cstdio>

#include "common/timer.h"
#include "core/cyclerank.h"
#include "datasets/generators.h"

namespace cyclerank {
namespace {

int RunAblation() {
  std::puts("Ablation A2: CycleRank distance pruning vs naive bounded DFS\n");

  BarabasiAlbertConfig config;
  config.num_nodes = 20000;
  config.edges_per_node = 6;
  config.reciprocity = 0.3;
  config.seed = 17;
  const auto graph = GenerateBarabasiAlbert(config);
  if (!graph.ok()) return 1;
  const Graph& g = graph.value();
  std::printf("graph: BA n=%u m=%llu reciprocity=%.1f\n\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()),
              config.reciprocity);

  std::printf("%-4s %-12s %-16s %-16s %-12s %-10s %-8s\n", "K", "cycles",
              "expansions", "expansions", "time (ms)", "time (ms)", "speedup");
  std::printf("%-4s %-12s %-16s %-16s %-12s %-10s %-8s\n", "", "",
              "pruned", "naive", "pruned", "naive", "");

  for (uint32_t k = 2; k <= 5; ++k) {
    CycleRankOptions pruned, naive;
    pruned.max_cycle_length = naive.max_cycle_length = k;
    pruned.use_pruning = true;
    naive.use_pruning = false;

    WallTimer timer;
    const auto a = ComputeCycleRank(g, 0, pruned);
    const double pruned_ms = timer.ElapsedSeconds() * 1000.0;
    timer.Restart();
    const auto b = ComputeCycleRank(g, 0, naive);
    const double naive_ms = timer.ElapsedSeconds() * 1000.0;
    if (!a.ok() || !b.ok()) return 1;

    // Correctness gate: pruning is exact.
    if (a->total_cycles != b->total_cycles) {
      std::fprintf(stderr, "MISMATCH at K=%u: %llu vs %llu cycles\n", k,
                   static_cast<unsigned long long>(a->total_cycles),
                   static_cast<unsigned long long>(b->total_cycles));
      return 1;
    }
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (a->scores[u] != b->scores[u]) {
        std::fprintf(stderr, "SCORE MISMATCH at node %u\n", u);
        return 1;
      }
    }

    std::printf("%-4u %-12llu %-16llu %-16llu %-12.1f %-10.1f %.1fx\n", k,
                static_cast<unsigned long long>(a->total_cycles),
                static_cast<unsigned long long>(a->dfs_expansions),
                static_cast<unsigned long long>(b->dfs_expansions), pruned_ms,
                naive_ms, naive_ms / pruned_ms);
  }

  std::puts(
      "\nShape check: identical cycle counts and scores at every K; the\n"
      "pruned search expands a small fraction of the naive state space and\n"
      "the gap widens with K.");
  return 0;
}

}  // namespace
}  // namespace cyclerank

int main() { return cyclerank::RunAblation(); }
