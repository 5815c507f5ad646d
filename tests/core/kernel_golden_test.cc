// Golden pins for the deterministic ranking kernels. Each case pins the
// FNV-1a 64 hash of the IEEE-754 bytes of the output vector plus the
// kernel's own work count (iterations, pushes), at threads 1 and 4, on a
// Barabási–Albert graph and on a graph where almost every node is
// dangling. Both graphs span several 2048-node chunks, so the chunked
// parallel paths and their fixed-order merges are exercised. A change
// that fails a pin changed an output, not just a speed: restructuring a
// kernel loop must leave every hash here untouched.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "core/cheirank.h"
#include "core/cyclerank.h"
#include "core/forward_push.h"
#include "core/pagerank.h"
#include "datasets/generators.h"
#include "graph/graph_builder.h"
#include "graph/traversal.h"

namespace cyclerank {
namespace {

constexpr uint32_t kThreadCounts[] = {1u, 4u};

Graph BaGraph() {
  BarabasiAlbertConfig config;
  config.num_nodes = 6000;
  config.edges_per_node = 4;
  config.reciprocity = 0.4;
  config.seed = 17;
  return GenerateBarabasiAlbert(config).value();
}

/// A 300-node BA core plus 5000 sinks, each fed by one core node: 94% of
/// the nodes are dangling, so dangling mass and teleport deltas dominate.
Graph DanglingHeavyGraph() {
  BarabasiAlbertConfig config;
  config.num_nodes = 300;
  config.edges_per_node = 3;
  config.reciprocity = 0.5;
  config.seed = 5;
  const Graph core = GenerateBarabasiAlbert(config).value();
  GraphBuilder builder;
  for (NodeId u = 0; u < core.num_nodes(); ++u) {
    for (NodeId v : core.OutNeighbors(u)) builder.AddEdge(u, v);
  }
  for (NodeId s = 0; s < 5000; ++s) builder.AddEdge(s % 300, 300 + s);
  return builder.Build().value();
}

const Graph& GraphNamed(const std::string& name) {
  static const Graph* const ba = new Graph(BaGraph());
  static const Graph* const dangling = new Graph(DanglingHeavyGraph());
  return name == "ba" ? *ba : *dangling;
}

uint64_t HashScores(const std::vector<double>& scores) {
  std::string bytes;
  for (double s : scores) binio::AppendDouble(&bytes, s);
  return binio::Fnv1a64(bytes);
}

uint64_t HashDistances(const std::vector<uint32_t>& distances) {
  std::string bytes;
  for (uint32_t d : distances) binio::AppendU32(&bytes, d);
  return binio::Fnv1a64(bytes);
}

std::string Where(const std::string& graph, const char* kernel,
                  uint32_t threads) {
  return graph + " " + kernel + " threads=" + std::to_string(threads);
}

TEST(KernelGoldenTest, PageRankCheiRankAndPpr) {
  const struct {
    const char* graph;
    const char* kernel;
    uint32_t iterations;
    uint64_t scores_hash;
  } kPins[] = {
      {"ba", "pagerank", 32, 0x36e9a94f895d748cull},
      {"ba", "cheirank", 106, 0x011d1abeda30097dull},
      {"ba", "ppr", 36, 0x01d7afe572e5ec20ull},
      {"dangling", "pagerank", 15, 0x6ddaa9ffdf8cf975ull},
      {"dangling", "cheirank", 67, 0x30d8b3a6267947bfull},
      {"dangling", "ppr", 37, 0x5d69ba1fc6ad97cfull},
  };
  for (const auto& pin : kPins) {
    const Graph& g = GraphNamed(pin.graph);
    const std::string kernel = pin.kernel;
    for (uint32_t threads : kThreadCounts) {
      PageRankOptions options;
      options.num_threads = threads;
      const PageRankScores pr =
          kernel == "pagerank" ? ComputePageRank(g, options).value()
          : kernel == "cheirank"
              ? ComputeCheiRank(g, options).value()
              : ComputePersonalizedPageRank(g, 0, options).value();
      const std::string where = Where(pin.graph, pin.kernel, threads);
      EXPECT_EQ(pr.iterations, pin.iterations) << where;
      EXPECT_EQ(HashScores(pr.scores), pin.scores_hash) << where;
    }
  }
}

TEST(KernelGoldenTest, ForwardPush) {
  const struct {
    const char* graph;
    double epsilon;
    uint64_t max_pushes;
    bool converged;
    uint64_t pushes;
    uint64_t scores_hash;
  } kPins[] = {
      {"ba", 1e-9, 0, true, 204372, 0x0d84ab6e3e7d5436ull},
      {"ba", 1e-10, 2000, false, 2000, 0xd9e366c1a6553335ull},
      {"dangling", 1e-9, 0, true, 71299, 0x49f57286655e44f2ull},
  };
  for (const auto& pin : kPins) {
    const Graph& g = GraphNamed(pin.graph);
    for (uint32_t threads : kThreadCounts) {
      ForwardPushOptions options;
      options.epsilon = pin.epsilon;
      options.max_pushes = pin.max_pushes;
      options.num_threads = threads;
      const ForwardPushScores fp = ComputeForwardPushPpr(g, 0, options).value();
      const std::string where = Where(pin.graph, "forward_push", threads) +
                                " max_pushes=" +
                                std::to_string(pin.max_pushes);
      EXPECT_EQ(fp.converged, pin.converged) << where;
      EXPECT_EQ(fp.pushes, pin.pushes) << where;
      EXPECT_EQ(HashScores(fp.scores), pin.scores_hash) << where;
    }
  }
}

TEST(KernelGoldenTest, CycleRankWithPruning) {
  const struct {
    const char* graph;
    uint32_t max_cycle_length;
    uint64_t total_cycles;
    uint64_t scores_hash;
  } kPins[] = {
      {"ba", 3, 167, 0xfc5bdf6a6db58e97ull},
      {"dangling", 4, 54, 0x98d68d874d66eea7ull},
  };
  for (const auto& pin : kPins) {
    const Graph& g = GraphNamed(pin.graph);
    for (uint32_t threads : kThreadCounts) {
      CycleRankOptions options;
      options.max_cycle_length = pin.max_cycle_length;
      options.use_pruning = true;
      options.num_threads = threads;
      const CycleRankScores cr = ComputeCycleRank(g, 0, options).value();
      const std::string where = Where(pin.graph, "cyclerank", threads);
      EXPECT_EQ(cr.total_cycles, pin.total_cycles) << where;
      EXPECT_EQ(HashScores(cr.scores), pin.scores_hash) << where;
    }
  }
}

TEST(KernelGoldenTest, BfsDistancesBothDirections) {
  const struct {
    const char* graph;
    Direction direction;
    uint64_t distances_hash;
  } kPins[] = {
      {"ba", Direction::kForward, 0x1ec4643bd9637148ull},
      {"ba", Direction::kBackward, 0x5d2fb688d89854c0ull},
      {"dangling", Direction::kForward, 0x14a0f16a1604364bull},
      {"dangling", Direction::kBackward, 0xb4b637c4fdc7c147ull},
  };
  for (const auto& pin : kPins) {
    const Graph& g = GraphNamed(pin.graph);
    for (uint32_t threads : kThreadCounts) {
      const std::vector<uint32_t> distances =
          BfsDistances(g, 0, pin.direction, kUnreachable, threads).value();
      const std::string where =
          Where(pin.graph, pin.direction == Direction::kForward ? "bfs_fwd"
                                                                : "bfs_bwd",
                threads);
      EXPECT_EQ(HashDistances(distances), pin.distances_hash) << where;
    }
  }
}

}  // namespace
}  // namespace cyclerank
