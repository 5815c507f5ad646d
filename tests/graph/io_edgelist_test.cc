#include "graph/io_edgelist.h"

#include <sstream>

#include <gtest/gtest.h>

namespace cyclerank {
namespace {

Result<Graph> Parse(std::string_view text,
                    const EdgeListReadOptions& options = {}) {
  return ReadEdgeList(text, options);
}

TEST(EdgeListTest, ParsesCommaSeparatedNumericPairs) {
  const Graph g = Parse("0,1\n1,2\n2,0\n").value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_EQ(g.labels(), nullptr);  // numeric mode
}

TEST(EdgeListTest, ParsesWhitespaceSeparatedPairs) {
  const Graph g = Parse("0 1\n1 2\n").value();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeListTest, ParsesSemicolonAndTab) {
  EXPECT_EQ(Parse("0;1\n1;2\n").value().num_edges(), 2u);
  EXPECT_EQ(Parse("0\t1\n").value().num_edges(), 1u);
}

TEST(EdgeListTest, SkipsCommentsAndBlankLines) {
  const Graph g = Parse("# comment\n\n0,1\n% other comment\n1,2\n\n").value();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeListTest, LabeledModeWhenTokensAreNotNumeric) {
  const Graph g = Parse("Pasta,Italy\nItaly,Pasta\n").value();
  ASSERT_NE(g.labels(), nullptr);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_TRUE(g.HasEdge(g.FindNode("Pasta"), g.FindNode("Italy")));
}

TEST(EdgeListTest, MixedTokensFallBackToLabeled) {
  // One non-numeric endpoint turns the whole file into labeled mode.
  const Graph g = Parse("1,2\nfoo,1\n").value();
  ASSERT_NE(g.labels(), nullptr);
  EXPECT_EQ(g.num_nodes(), 3u);  // "1", "2", "foo"
  EXPECT_NE(g.FindNode("foo"), kInvalidNode);
}

TEST(EdgeListTest, LabeledFallbackPreservesNumericSpellings) {
  // The one-pass reader holds early numeric edges as integers; when a
  // later token forces labeled mode, the originals must come back with
  // their exact spelling — "007" and "7" are different labels.
  const Graph g = Parse("007,7\n7,007\nfoo,007\n").value();
  ASSERT_NE(g.labels(), nullptr);
  EXPECT_EQ(g.num_nodes(), 3u);  // "007", "7", "foo"
  const NodeId padded = g.FindNode("007");
  const NodeId plain = g.FindNode("7");
  ASSERT_NE(padded, kInvalidNode);
  ASSERT_NE(plain, kInvalidNode);
  EXPECT_NE(padded, plain);
  EXPECT_TRUE(g.HasEdge(padded, plain));
  EXPECT_TRUE(g.HasEdge(g.FindNode("foo"), padded));
  // First-appearance numbering starts at the first line, not the fallback
  // point.
  EXPECT_EQ(padded, 0u);
  EXPECT_EQ(plain, 1u);
}

TEST(EdgeListTest, NegativeIdsAreLabelsWhenFileIsLabeled) {
  // "-1" only poisons an all-numeric file; alongside a word token it is a
  // perfectly good label.
  const Graph g = Parse("-1,foo\n").value();
  ASSERT_NE(g.labels(), nullptr);
  EXPECT_NE(g.FindNode("-1"), kInvalidNode);
}

TEST(EdgeListTest, LargeNumericFileStaysNumeric) {
  std::string text;
  for (int i = 0; i < 1000; ++i) {
    text += std::to_string(i) + "," + std::to_string(i + 1) + "\n";
  }
  const Graph g = Parse(text).value();
  EXPECT_EQ(g.labels(), nullptr);
  EXPECT_EQ(g.num_nodes(), 1001u);
  EXPECT_EQ(g.num_edges(), 1000u);
}

TEST(EdgeListTest, ForceLabeledTreatsNumbersAsLabels) {
  EdgeListReadOptions options;
  options.force_labeled = true;
  const Graph g = Parse("10,20\n", options).value();
  ASSERT_NE(g.labels(), nullptr);
  EXPECT_EQ(g.num_nodes(), 2u);  // not 21 numeric nodes
  EXPECT_NE(g.FindNode("10"), kInvalidNode);
}

TEST(EdgeListTest, LabelsMayContainSpaces) {
  const Graph g = Parse("Freddie Mercury,Queen (band)\n").value();
  EXPECT_NE(g.FindNode("Freddie Mercury"), kInvalidNode);
  EXPECT_NE(g.FindNode("Queen (band)"), kInvalidNode);
}

TEST(EdgeListTest, RejectsWrongFieldCount) {
  EXPECT_EQ(Parse("0,1,2\n").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Parse("0\n").status().code(), StatusCode::kParseError);
}

TEST(EdgeListTest, RejectsNegativeIds) {
  EXPECT_EQ(Parse("-1,2\n").status().code(), StatusCode::kParseError);
}

TEST(EdgeListTest, RejectsIdsBeyondNodeIdRange) {
  // 2^32 would silently wrap to node 0 in the NodeId cast.
  EXPECT_EQ(Parse("4294967296,1\n").status().code(), StatusCode::kParseError);
  // The sentinel value itself is reserved too.
  EXPECT_EQ(Parse("4294967295,1\n").status().code(), StatusCode::kParseError);
  // In a labeled file the same token is a perfectly good label.
  const Graph g = Parse("4294967296,foo\n").value();
  ASSERT_NE(g.labels(), nullptr);
  EXPECT_NE(g.FindNode("4294967296"), kInvalidNode);
}

TEST(EdgeListTest, DelimiterIsFixedByTheFirstDataLine) {
  // The delimiter is detected once, not per line: a comma file whose second
  // line uses a space has a one-field line there.
  const Status status = Parse("0,1\n1 2\n").status();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_EQ(status.message(), "edgelist line 2: expected 2 fields, got 1");
}

TEST(EdgeListTest, EmptyInputYieldsEmptyGraph) {
  const Graph g = Parse("").value();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(EdgeListTest, WriteReadRoundTripNumeric) {
  const Graph g = Parse("0,3\n1,2\n3,1\n").value();
  std::ostringstream out;
  ASSERT_TRUE(WriteEdgeList(g, out).ok());
  const Graph g2 = Parse(out.str()).value();
  EXPECT_EQ(g2.num_nodes(), g.num_nodes());
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_TRUE(g2.HasEdge(0, 3));
  EXPECT_TRUE(g2.HasEdge(3, 1));
}

TEST(EdgeListTest, WriteReadRoundTripLabeled) {
  const Graph g = Parse("a,b\nb,c\nc,a\n").value();
  std::ostringstream out;
  ASSERT_TRUE(WriteEdgeList(g, out).ok());
  const Graph g2 = Parse(out.str()).value();
  ASSERT_NE(g2.labels(), nullptr);
  EXPECT_TRUE(g2.HasEdge(g2.FindNode("c"), g2.FindNode("a")));
}

}  // namespace
}  // namespace cyclerank
