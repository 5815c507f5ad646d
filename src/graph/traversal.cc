#include "graph/traversal.h"

#include <span>

#include "common/frontier.h"

namespace cyclerank {

Result<std::vector<uint32_t>> BfsDistances(const Graph& g, NodeId source,
                                           Direction direction,
                                           uint32_t max_depth,
                                           uint32_t num_threads) {
  if (!g.IsValidNode(source)) {
    return Status::OutOfRange("BfsDistances: source " +
                              std::to_string(source) + " out of range");
  }
  std::vector<uint32_t> dist(g.num_nodes(), kUnreachable);
  dist[source] = 0;
  if (max_depth == 0) return dist;

  FrontierEngine::Options options;
  options.num_threads = num_threads;
  FrontierEngine engine(g.num_nodes(), options);
  engine.Seed(source);

  // Every node of round r's frontier has distance r, so candidates of
  // round r get distance r+1 — the same value no matter which chunk (or
  // thread) proposed them first. `dist` doubles as the visited structure:
  // the expansion-side check is a best-effort filter, the merge-side check
  // is authoritative.
  uint32_t depth = 0;
  std::vector<uint32_t> degrees(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    degrees[u] =
        direction == Direction::kForward ? g.OutDegree(u) : g.InDegree(u);
  }
  FrontierEngine::Callbacks callbacks;
  callbacks.node_weights = degrees;
  callbacks.expand = [&](std::span<const uint32_t> chunk,
                         FrontierEngine::Emitter& out) {
    for (uint32_t u : chunk) {
      const std::span<const NodeId> neighbors =
          direction == Direction::kForward ? g.OutNeighbors(u)
                                           : g.InNeighbors(u);
      for (NodeId v : neighbors) {
        if (dist[v] == kUnreachable) out.Candidate(v);
      }
    }
  };
  callbacks.candidates = [&](std::span<const uint32_t> chunk_candidates) {
    for (uint32_t v : chunk_candidates) {
      if (dist[v] == kUnreachable) {
        dist[v] = depth + 1;
        engine.Next(v);
      }
    }
  };
  callbacks.round_done = [&](uint32_t round) {
    depth = round + 1;
    return round + 1 < max_depth;
  };
  engine.Run(callbacks);
  return dist;
}

Result<std::vector<NodeId>> ReachableSet(const Graph& g, NodeId source,
                                         Direction direction,
                                         uint32_t max_depth,
                                         uint32_t num_threads) {
  CYCLERANK_ASSIGN_OR_RETURN(
      std::vector<uint32_t> dist,
      BfsDistances(g, source, direction, max_depth, num_threads));
  std::vector<NodeId> out;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (dist[u] != kUnreachable) out.push_back(u);
  }
  return out;
}

}  // namespace cyclerank
