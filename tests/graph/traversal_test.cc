#include "graph/traversal.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/generators.h"
#include "graph/graph_builder.h"

namespace cyclerank {
namespace {

// 0 -> 1 -> 2 -> 3, plus 3 -> 0 closing the loop, plus isolated 4.
Graph LoopPlusIsolated() {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 0);
  builder.ReserveNodes(5);
  return builder.Build().value();
}

TEST(TraversalTest, ForwardDistances) {
  const Graph g = LoopPlusIsolated();
  const auto dist = BfsDistances(g, 0, Direction::kForward).value();
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(TraversalTest, BackwardDistancesFollowInEdges) {
  const Graph g = LoopPlusIsolated();
  // Backward from 0: who can reach 0 and in how many steps?
  const auto dist = BfsDistances(g, 0, Direction::kBackward).value();
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[3], 1u);  // 3 -> 0
  EXPECT_EQ(dist[2], 2u);  // 2 -> 3 -> 0
  EXPECT_EQ(dist[1], 3u);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(TraversalTest, MaxDepthBoundsExploration) {
  const Graph g = LoopPlusIsolated();
  const auto dist = BfsDistances(g, 0, Direction::kForward, 2).value();
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], kUnreachable);  // beyond the bound
}

TEST(TraversalTest, MaxDepthZeroOnlySource) {
  const Graph g = LoopPlusIsolated();
  const auto dist = BfsDistances(g, 1, Direction::kForward, 0).value();
  EXPECT_EQ(dist[1], 0u);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(TraversalTest, ShortestPathChosenOverLonger) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(0, 2);  // shortcut
  const Graph g = builder.Build().value();
  const auto dist = BfsDistances(g, 0, Direction::kForward).value();
  EXPECT_EQ(dist[2], 1u);
}

TEST(TraversalTest, InvalidSourceRejected) {
  const Graph g = LoopPlusIsolated();
  EXPECT_EQ(BfsDistances(g, 99, Direction::kForward).status().code(),
            StatusCode::kOutOfRange);
}

TEST(TraversalTest, ReachableSetAscendingAndIncludesSource) {
  const Graph g = LoopPlusIsolated();
  const auto reach = ReachableSet(g, 1, Direction::kForward, 2).value();
  // From 1 within 2 hops: 1, 2, 3.
  ASSERT_EQ(reach.size(), 3u);
  EXPECT_EQ(reach[0], 1u);
  EXPECT_EQ(reach[1], 2u);
  EXPECT_EQ(reach[2], 3u);
}

TEST(TraversalTest, ReachableSetWholeLoop) {
  const Graph g = LoopPlusIsolated();
  const auto reach = ReachableSet(g, 2, Direction::kForward).value();
  EXPECT_EQ(reach.size(), 4u);  // everything except the isolated node
}

Graph RandomGraph(NodeId n, uint64_t seed) {
  BarabasiAlbertConfig config;
  config.num_nodes = n;
  config.edges_per_node = 5;
  config.reciprocity = 0.4;
  config.seed = seed;
  return GenerateBarabasiAlbert(config).value();
}

TEST(TraversalTest, BfsDistancesBitIdenticalAcrossThreadCounts) {
  // The 5-node loop gives more threads than nodes.
  const Graph random = RandomGraph(2000, 11);
  const Graph tiny = LoopPlusIsolated();
  for (const Graph* g : {&random, &tiny}) {
    for (Direction direction : {Direction::kForward, Direction::kBackward}) {
      const auto base = BfsDistances(*g, 0, direction, kUnreachable,
                                     /*num_threads=*/1)
                            .value();
      for (uint32_t threads : {2u, 4u, 8u}) {
        EXPECT_EQ(base, BfsDistances(*g, 0, direction, kUnreachable, threads)
                            .value())
            << "nodes=" << g->num_nodes() << " threads=" << threads;
      }
    }
  }
}

TEST(TraversalTest, BoundedBfsBitIdenticalAcrossThreadCounts) {
  const Graph g = RandomGraph(1500, 13);
  for (uint32_t depth : {1u, 2u, 4u}) {
    const auto base =
        BfsDistances(g, 3, Direction::kBackward, depth, 1).value();
    for (uint32_t threads : {2u, 4u, 8u}) {
      EXPECT_EQ(base,
                BfsDistances(g, 3, Direction::kBackward, depth, threads)
                    .value())
          << "depth=" << depth << " threads=" << threads;
    }
  }
}

TEST(TraversalTest, ParallelBfsMatchesReferenceImplementation) {
  // Cross-check the frontier-engine BFS against a straightforward serial
  // BFS written here, on a graph large enough for many chunks per wave.
  const Graph g = RandomGraph(3000, 17);
  std::vector<uint32_t> expected(g.num_nodes(), kUnreachable);
  expected[7] = 0;
  std::vector<NodeId> queue{7};
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (NodeId v : g.OutNeighbors(u)) {
      if (expected[v] == kUnreachable) {
        expected[v] = expected[u] + 1;
        queue.push_back(v);
      }
    }
  }
  for (uint32_t threads : {1u, 4u}) {
    EXPECT_EQ(expected,
              BfsDistances(g, 7, Direction::kForward, kUnreachable, threads)
                  .value());
  }
}

TEST(TraversalTest, ConcurrentQueriesShareTheGraphSafely) {
  // Many traversals over one shared immutable graph, each itself fanning
  // out on the global pool — the nesting the caller-runs design supports.
  // Run under -DCYCLERANK_SANITIZE=thread this doubles as the TSan stress
  // test for concurrent frontier queries.
  const Graph g = RandomGraph(1200, 19);
  const auto expected =
      BfsDistances(g, 0, Direction::kForward, kUnreachable, 1).value();
  std::vector<std::thread> workers;
  std::vector<int> ok(8, 0);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      const auto dist =
          BfsDistances(g, 0, Direction::kForward, kUnreachable, 4).value();
      ok[t] = dist == expected ? 1 : 0;
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

}  // namespace
}  // namespace cyclerank
