#include "graph/io_asd.h"

#include <sstream>

#include <gtest/gtest.h>

namespace cyclerank {
namespace {

Result<Graph> Parse(const std::string& text) { return ReadAsd(text); }

TEST(AsdTest, ParsesHeaderAndEdges) {
  const Graph g = Parse("3 3\n0 1\n1 2\n2 0\n").value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(2, 0));
}

TEST(AsdTest, NodeCountMayExceedTouchedNodes) {
  const Graph g = Parse("10 1\n0 1\n").value();
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.OutDegree(9), 0u);
}

TEST(AsdTest, CommentsSkipped) {
  const Graph g = Parse("# generated\n2 1\n# edge follows\n0 1\n").value();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(AsdTest, RejectsMissingHeader) {
  EXPECT_EQ(Parse("").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Parse("# only comments\n").status().code(),
            StatusCode::kParseError);
}

TEST(AsdTest, RejectsMalformedHeader) {
  EXPECT_EQ(Parse("3\n").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Parse("3 2 1\n").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Parse("-1 0\n").status().code(), StatusCode::kParseError);
}

TEST(AsdTest, RejectsTooFewEdges) {
  EXPECT_EQ(Parse("3 2\n0 1\n").status().code(), StatusCode::kParseError);
}

TEST(AsdTest, RejectsTrailingData) {
  EXPECT_EQ(Parse("2 1\n0 1\n1 0\n").status().code(), StatusCode::kParseError);
}

TEST(AsdTest, RejectsEndpointOutOfRange) {
  EXPECT_EQ(Parse("2 1\n0 2\n").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Parse("2 1\n-1 0\n").status().code(), StatusCode::kParseError);
}

TEST(AsdTest, RejectsMalformedEdgeLine) {
  EXPECT_EQ(Parse("2 1\n0 1 2\n").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Parse("2 1\n0\n").status().code(), StatusCode::kParseError);
}

TEST(AsdTest, WriteReadRoundTrip) {
  const Graph g = Parse("4 3\n0 1\n1 2\n3 0\n").value();
  std::ostringstream out;
  ASSERT_TRUE(WriteAsd(g, out).ok());
  const Graph g2 = Parse(out.str()).value();
  EXPECT_EQ(g2.num_nodes(), 4u);
  EXPECT_EQ(g2.num_edges(), 3u);
  EXPECT_TRUE(g2.HasEdge(3, 0));
}

TEST(AsdTest, EmptyGraphRoundTrip) {
  const Graph g = Parse("0 0\n").value();
  EXPECT_EQ(g.num_nodes(), 0u);
  std::ostringstream out;
  ASSERT_TRUE(WriteAsd(g, out).ok());
  EXPECT_EQ(Parse(out.str()).value().num_nodes(), 0u);
}

}  // namespace
}  // namespace cyclerank
