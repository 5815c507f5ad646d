#include "graph/graph_builder.h"

#include <gtest/gtest.h>

namespace cyclerank {
namespace {

TEST(GraphBuilderTest, EmptyBuilderProducesEmptyGraph) {
  GraphBuilder builder;
  const Graph g = builder.Build().value();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilderTest, NumericEdgesDefineNodeRange) {
  GraphBuilder builder;
  builder.AddEdge(0, 5);
  builder.AddEdge(2, 1);
  const Graph g = builder.Build().value();
  EXPECT_EQ(g.num_nodes(), 6u);  // max id 5 -> 6 nodes
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 5));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(5, 0));
}

TEST(GraphBuilderTest, ReserveNodesAllowsIsolatedNodes) {
  GraphBuilder builder;
  builder.ReserveNodes(10);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build().value();
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.OutDegree(9), 0u);
  EXPECT_EQ(g.InDegree(9), 0u);
}

TEST(GraphBuilderTest, DeduplicatesParallelEdgesByDefault) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build().value();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, KeepsParallelEdgesWhenDisabled) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  GraphBuildOptions options;
  options.deduplicate = false;
  const Graph g = builder.Build(options).value();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilderTest, DropsSelfLoopsByDefault) {
  GraphBuilder builder;
  builder.AddEdge(3, 3);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build().value();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.HasEdge(3, 3));
}

TEST(GraphBuilderTest, KeepsSelfLoopsWhenRequested) {
  GraphBuilder builder;
  builder.AddEdge(3, 3);
  GraphBuildOptions options;
  options.drop_self_loops = false;
  const Graph g = builder.Build(options).value();
  EXPECT_TRUE(g.HasEdge(3, 3));
}

TEST(GraphBuilderTest, NeighborsAreSortedAscending) {
  GraphBuilder builder;
  builder.AddEdge(0, 9);
  builder.AddEdge(0, 3);
  builder.AddEdge(0, 7);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build().value();
  const auto row = g.OutNeighbors(0);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], 1u);
  EXPECT_EQ(row[1], 3u);
  EXPECT_EQ(row[2], 7u);
  EXPECT_EQ(row[3], 9u);
}

TEST(GraphBuilderTest, InNeighborsMirrorOutEdges) {
  GraphBuilder builder;
  builder.AddEdge(2, 0);
  builder.AddEdge(1, 0);
  builder.AddEdge(3, 0);
  const Graph g = builder.Build().value();
  const auto row = g.InNeighbors(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 1u);
  EXPECT_EQ(row[1], 2u);
  EXPECT_EQ(row[2], 3u);
  EXPECT_EQ(g.InDegree(0), 3u);
  EXPECT_EQ(g.OutDegree(0), 0u);
}

TEST(GraphBuilderTest, LabeledModeBuildsLabelMap) {
  GraphBuilder builder;
  builder.AddEdge("a", "b");
  builder.AddEdge("b", "c");
  const Graph g = builder.Build().value();
  ASSERT_NE(g.labels(), nullptr);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.NodeName(0), "a");
  EXPECT_NE(g.FindNode("c"), kInvalidNode);
  EXPECT_TRUE(g.HasEdge(g.FindNode("a"), g.FindNode("b")));
}

TEST(GraphBuilderTest, UnlabeledGraphNamesAreIds) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  const Graph g = builder.Build().value();
  EXPECT_EQ(g.labels(), nullptr);
  EXPECT_EQ(g.NodeName(1), "1");
  EXPECT_EQ(g.FindNode("1"), kInvalidNode);
}

TEST(GraphBuilderTest, BuilderIsReusableAfterBuild) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  const Graph g1 = builder.Build().value();
  EXPECT_EQ(g1.num_edges(), 1u);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  const Graph g2 = builder.Build().value();
  EXPECT_EQ(g2.num_edges(), 2u);
}

TEST(GraphBuilderTest, BuildSharedReturnsSharedPtr) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  GraphPtr g = builder.BuildShared().value();
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST(GraphBuilderTest, PendingEdgesCountsBeforeBuild) {
  GraphBuilder builder;
  EXPECT_EQ(builder.PendingEdges(), 0u);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  EXPECT_EQ(builder.PendingEdges(), 2u);
}

TEST(GraphBuilderTest, BuildRefusesMoreNodesThanTheCeiling) {
  GraphBuildOptions options;
  options.max_nodes = 9;
  GraphBuilder builder;
  builder.AddEdge(0, 9);
  const Status status = builder.Build(options).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "graph: 10 nodes exceed the node ceiling of 9");
  options.max_nodes = 10;
  EXPECT_EQ(builder.Build(options).value().num_nodes(), 10u);
  // The implied count is refused before the CSR is sized for it.
  builder.AddEdge(kInvalidNode - 1, 0);
  EXPECT_EQ(builder.Build(options).status().message(),
            "graph: 4294967295 nodes exceed the node ceiling of 10");
}

TEST(GraphBuilderTest, TheSentinelIdCannotWrapTheNodeCount) {
  GraphBuilder builder;
  builder.AddEdge(kInvalidNode, 0);
  EXPECT_EQ(builder.Build().status().message(),
            "graph: 4294967296 nodes exceed the node ceiling of 4294967295");
}

}  // namespace
}  // namespace cyclerank
