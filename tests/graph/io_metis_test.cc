#include "graph/io_metis.h"

#include <sstream>

#include <gtest/gtest.h>

#include "graph/io.h"
#include "graph/transforms.h"

namespace cyclerank {
namespace {

Result<Graph> Parse(const std::string& text) { return ReadMetis(text); }

TEST(MetisTest, ParsesAdjacencyLines) {
  // Triangle: 3 nodes, 3 undirected edges, each listed from both sides.
  const Graph g = Parse("3 3\n2 3\n1 3\n1 2\n").value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 6u);  // both directions materialized
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 0));
}

TEST(MetisTest, EmptyAdjacencyLinesAllowed) {
  const Graph g = Parse("3 1\n2\n1\n\n").value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(2), 0u);
}

TEST(MetisTest, CommentsSkipped) {
  const Graph g = Parse("% a metis file\n2 1\n2\n1\n").value();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(MetisTest, RejectsWeightedHeader) {
  EXPECT_EQ(Parse("3 3 011\n").status().code(), StatusCode::kUnimplemented);
}

TEST(MetisTest, RejectsOutOfRangeNeighbour) {
  EXPECT_EQ(Parse("2 1\n3\n\n").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Parse("2 1\n0\n\n").status().code(), StatusCode::kParseError);
}

TEST(MetisTest, RejectsMissingLines) {
  EXPECT_EQ(Parse("3 1\n2\n").status().code(), StatusCode::kParseError);
}

TEST(MetisTest, RejectsEdgeCountMismatch) {
  EXPECT_EQ(Parse("2 5\n2\n1\n").status().code(), StatusCode::kParseError);
}

TEST(MetisTest, RejectsTrailingData) {
  EXPECT_EQ(Parse("2 1\n2\n1\n1 2\n").status().code(),
            StatusCode::kParseError);
}

TEST(MetisTest, WriteRequiresSymmetry) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);  // no reverse
  const Graph g = builder.Build().value();
  std::ostringstream out;
  EXPECT_EQ(WriteMetis(g, out).code(), StatusCode::kInvalidArgument);
}

TEST(MetisTest, SymmetrizedRoundTrip) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  const Graph directed = builder.Build().value();
  const Graph g = Symmetrize(directed).value();
  std::ostringstream out;
  ASSERT_TRUE(WriteMetis(g, out).ok());
  const Graph g2 = Parse(out.str()).value();
  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) EXPECT_TRUE(g2.HasEdge(u, v));
  }
}

TEST(MetisTest, DispatchThroughFormatEnum) {
  EXPECT_EQ(GraphFormatFromPath("mesh.metis").value(), GraphFormat::kMetis);
  EXPECT_EQ(GraphFormatToString(GraphFormat::kMetis), "metis");
  const Graph g =
      ReadGraphFromString("2 1\n2\n1\n", GraphFormat::kMetis).value();
  EXPECT_EQ(g.num_edges(), 2u);
  const std::string text = WriteGraphToString(g, GraphFormat::kMetis).value();
  EXPECT_EQ(ReadGraphFromString(text, GraphFormat::kMetis).value().num_edges(),
            2u);
}

TEST(MetisTest, SniffNeverPicksMetis) {
  // The METIS header is indistinguishable from ASD's; sniffing must stay
  // deterministic and pick one of the demo's own formats.
  const GraphFormat format = SniffGraphFormat("2 1\n2\n1\n");
  EXPECT_NE(format, GraphFormat::kMetis);
}

}  // namespace
}  // namespace cyclerank
