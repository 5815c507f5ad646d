#include "graph/io_pajek.h"

#include <sstream>

#include <gtest/gtest.h>

namespace cyclerank {
namespace {

Result<Graph> Parse(const std::string& text) { return ReadPajek(text); }

TEST(PajekTest, ParsesVerticesAndArcs) {
  const Graph g = Parse(
                      "*Vertices 3\n"
                      "1 \"alpha\"\n"
                      "2 \"beta\"\n"
                      "3 \"gamma\"\n"
                      "*Arcs\n"
                      "1 2\n"
                      "2 3\n")
                      .value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  ASSERT_NE(g.labels(), nullptr);
  EXPECT_TRUE(g.HasEdge(g.FindNode("alpha"), g.FindNode("beta")));
}

TEST(PajekTest, EdgesSectionIsUndirected) {
  const Graph g = Parse(
                      "*Vertices 2\n"
                      "*Edges\n"
                      "1 2\n")
                      .value();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
}

TEST(PajekTest, UnlabeledVerticesAllowed) {
  const Graph g = Parse("*Vertices 4\n*Arcs\n1 4\n").value();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_TRUE(g.HasEdge(0, 3));
  EXPECT_EQ(g.labels(), nullptr);
}

TEST(PajekTest, WeightsAreIgnored) {
  const Graph g = Parse("*Vertices 2\n*Arcs\n1 2 3.5\n").value();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(PajekTest, CommentsSkipped) {
  const Graph g = Parse(
                      "% pajek comment\n"
                      "*Vertices 2\n"
                      "% another\n"
                      "*Arcs\n"
                      "1 2\n")
                      .value();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(PajekTest, ArcsListSection) {
  const Graph g = Parse("*Vertices 4\n*Arcslist\n1 2 3 4\n").value();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(0, 3));
}

TEST(PajekTest, EdgesListSectionIsUndirected) {
  const Graph g = Parse("*Vertices 3\n*Edgeslist\n1 2 3\n").value();
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 0));
}

TEST(PajekTest, PartialLabelsGetSyntheticNames) {
  const Graph g = Parse(
                      "*Vertices 3\n"
                      "1 \"named\"\n"
                      "*Arcs\n"
                      "2 3\n")
                      .value();
  ASSERT_NE(g.labels(), nullptr);
  EXPECT_EQ(g.NodeName(0), "named");
  EXPECT_EQ(g.NodeName(1), "v2");
  EXPECT_EQ(g.NodeName(2), "v3");
}

TEST(PajekTest, RejectsMissingVertices) {
  EXPECT_EQ(Parse("*Arcs\n1 2\n").status().code(), StatusCode::kParseError);
}

TEST(PajekTest, RejectsOutOfRangeEndpoint) {
  EXPECT_EQ(Parse("*Vertices 2\n*Arcs\n1 3\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Parse("*Vertices 2\n*Arcs\n0 1\n").status().code(),
            StatusCode::kParseError);  // pajek is 1-based
}

TEST(PajekTest, RejectsDataBeforeSection) {
  EXPECT_EQ(Parse("1 2\n").status().code(), StatusCode::kParseError);
}

TEST(PajekTest, RejectsUnknownSection) {
  EXPECT_EQ(Parse("*Vertices 2\n*Bogus\n").status().code(),
            StatusCode::kParseError);
}

TEST(PajekTest, RejectsVertexIdOutOfDeclaredRange) {
  EXPECT_EQ(Parse("*Vertices 2\n5 \"x\"\n").status().code(),
            StatusCode::kParseError);
}

TEST(PajekTest, WriteReadRoundTripPreservesLabelsAndEdges) {
  const Graph g = Parse(
                      "*Vertices 3\n"
                      "1 \"a\"\n"
                      "2 \"b\"\n"
                      "3 \"c\"\n"
                      "*Arcs\n"
                      "1 2\n"
                      "3 1\n")
                      .value();
  std::ostringstream out;
  ASSERT_TRUE(WritePajek(g, out).ok());
  const Graph g2 = Parse(out.str()).value();
  EXPECT_EQ(g2.num_nodes(), 3u);
  EXPECT_EQ(g2.num_edges(), 2u);
  EXPECT_TRUE(g2.HasEdge(g2.FindNode("c"), g2.FindNode("a")));
}

TEST(PajekTest, CaseInsensitiveKeywords) {
  const Graph g = Parse("*VERTICES 2\n*arcs\n1 2\n").value();
  EXPECT_EQ(g.num_edges(), 1u);
}

}  // namespace
}  // namespace cyclerank
