#include "graph/io.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "datasets/generators.h"
#include "graph/graph_builder.h"

namespace cyclerank {
namespace {

TEST(IoTest, FormatFromPath) {
  EXPECT_EQ(GraphFormatFromPath("g.csv").value(), GraphFormat::kEdgeList);
  EXPECT_EQ(GraphFormatFromPath("g.edges").value(), GraphFormat::kEdgeList);
  EXPECT_EQ(GraphFormatFromPath("dir/g.txt").value(), GraphFormat::kEdgeList);
  EXPECT_EQ(GraphFormatFromPath("g.net").value(), GraphFormat::kPajek);
  EXPECT_EQ(GraphFormatFromPath("g.PAJEK").value(), GraphFormat::kPajek);
  EXPECT_EQ(GraphFormatFromPath("g.asd").value(), GraphFormat::kAsd);
  EXPECT_FALSE(GraphFormatFromPath("g.xyz").ok());
  EXPECT_FALSE(GraphFormatFromPath("noext").ok());
}

TEST(IoTest, FormatNames) {
  EXPECT_EQ(GraphFormatToString(GraphFormat::kEdgeList), "edgelist");
  EXPECT_EQ(GraphFormatToString(GraphFormat::kPajek), "pajek");
  EXPECT_EQ(GraphFormatToString(GraphFormat::kAsd), "asd");
}

TEST(IoTest, SniffsPajek) {
  EXPECT_EQ(SniffGraphFormat("*Vertices 3\n*Arcs\n1 2\n"),
            GraphFormat::kPajek);
  EXPECT_EQ(SniffGraphFormat("% comment\n*Vertices 1\n"), GraphFormat::kPajek);
}

TEST(IoTest, SniffsAsdWhenEdgeCountMatches) {
  EXPECT_EQ(SniffGraphFormat("3 2\n0 1\n1 2\n"), GraphFormat::kAsd);
}

TEST(IoTest, SniffsEdgeListWhenCountMismatches) {
  // "0 1\n1 2\n" would be ASD "N=0 M=1"? No: header 0 1 with 1 data line
  // matches M=1... use a clearly-not-ASD input.
  EXPECT_EQ(SniffGraphFormat("5 7\n1 2\n"), GraphFormat::kEdgeList);
  EXPECT_EQ(SniffGraphFormat("a,b\nb,c\n"), GraphFormat::kEdgeList);
  EXPECT_EQ(SniffGraphFormat("0,1\n1,2\n"), GraphFormat::kEdgeList);
}

TEST(IoTest, ReadGraphFromStringAutodetects) {
  const Graph pajek =
      ReadGraphFromString("*Vertices 2\n*Arcs\n1 2\n").value();
  EXPECT_EQ(pajek.num_edges(), 1u);
  const Graph asd = ReadGraphFromString("2 1\n0 1\n").value();
  EXPECT_EQ(asd.num_nodes(), 2u);
  const Graph csv = ReadGraphFromString("x,y\ny,x\n").value();
  EXPECT_EQ(csv.num_edges(), 2u);
}

class IoRoundTripTest : public ::testing::TestWithParam<GraphFormat> {};

TEST_P(IoRoundTripTest, StringRoundTripPreservesStructure) {
  // Property: for every format, write(read(write(g))) preserves node and
  // edge sets of a generated graph.
  ErdosRenyiConfig config;
  config.num_nodes = 60;
  config.edge_prob = 0.05;
  config.seed = 17;
  const Graph g = GenerateErdosRenyi(config).value();
  const std::string text = WriteGraphToString(g, GetParam()).value();
  const Graph g2 = ReadGraphFromString(text, GetParam()).value();
  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto a = g.OutNeighbors(u);
    const auto b = g2.OutNeighbors(u);
    ASSERT_EQ(a.size(), b.size()) << "node " << u;
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, IoRoundTripTest,
                         ::testing::Values(GraphFormat::kEdgeList,
                                           GraphFormat::kPajek,
                                           GraphFormat::kAsd),
                         [](const auto& test_info) {
                           return std::string(GraphFormatToString(test_info.param));
                         });

TEST(IoTest, FileRoundTrip) {
  GraphBuildOptions build;
  const Graph g = ReadGraphFromString("0,1\n1,2\n2,0\n").value();
  const std::string path = ::testing::TempDir() + "/io_test_graph_" +
                           std::to_string(::getpid()) + ".asd";
  ASSERT_TRUE(WriteGraphFile(g, path, GraphFormat::kAsd).ok());
  const Graph g2 = ReadGraphFile(path).value();  // format from extension
  EXPECT_EQ(g2.num_edges(), 3u);
  std::remove(path.c_str());
}

TEST(IoTest, PajekRefusesLabelsItCannotQuote) {
  // Pajek labels sit between unescaped double quotes, one vertex per line:
  // a label holding a quote or a line break would come back altered.
  const Graph quoted = ReadGraphFromString("say \"hi\",b\nb,c\n").value();
  const Result<std::string> written =
      WriteGraphToString(quoted, GraphFormat::kPajek);
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.status().ToString(),
            "InvalidArgument: pajek: vertex 1's label 'say \"hi\"' contains "
            "a double quote or a line break, which a Pajek label cannot hold");

  for (const char* label : {"two\nlines", "carriage\rreturn"}) {
    GraphBuilder builder;
    builder.AddEdge("a", label);
    const Graph broken = builder.Build().value();
    const Result<std::string> refused =
        WriteGraphToString(broken, GraphFormat::kPajek);
    ASSERT_FALSE(refused.ok()) << label;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.status().message().find("vertex 2's label"),
              std::string::npos)
        << refused.status().ToString();
  }

  // Every other label, spaces and commas included, round-trips.
  GraphBuilder builder;
  builder.AddEdge("plain", "with space, comma");
  const Graph fine = builder.Build().value();
  const Graph back =
      ReadGraphFromString(WriteGraphToString(fine, GraphFormat::kPajek).value(),
                          GraphFormat::kPajek)
          .value();
  EXPECT_EQ(back.NodeName(0), "plain");
  EXPECT_EQ(back.NodeName(1), "with space, comma");
}

TEST(IoTest, ReadMissingFileIsIOError) {
  EXPECT_EQ(ReadGraphFile("/nonexistent/path/g.csv").status().code(),
            StatusCode::kIOError);
}

std::string ReadError(std::string_view body, GraphFormat format,
                      uint64_t max_nodes) {
  GraphBuildOptions build;
  build.max_nodes = max_nodes;
  const Result<Graph> graph = ReadGraphFromString(body, format, build);
  return graph.ok() ? "ok" : graph.status().ToString();
}

TEST(IoTest, DeclaredNodeCountsPastTheCeilingAreRefused) {
  EXPECT_EQ(ReadError("*Vertices 4\n", GraphFormat::kPajek, 4), "ok");
  EXPECT_EQ(ReadError("*Vertices 5\n", GraphFormat::kPajek, 4),
            "InvalidArgument: pajek *Vertices: 5 nodes exceed the node "
            "ceiling of 4");
  EXPECT_EQ(ReadError("4 0\n\n\n\n\n", GraphFormat::kMetis, 4), "ok");
  EXPECT_EQ(ReadError("5 0\n", GraphFormat::kMetis, 4),
            "InvalidArgument: metis header: 5 nodes exceed the node ceiling "
            "of 4");
  EXPECT_EQ(ReadError("4 0\n", GraphFormat::kAsd, 4), "ok");
  EXPECT_EQ(ReadError("5 0\n", GraphFormat::kAsd, 4),
            "InvalidArgument: asd header: 5 nodes exceed the node ceiling of "
            "4");
  // The implied count of the edge list's largest id. A Pajek list target
  // is bounded by *Vertices, which the ceiling already bounds.
  EXPECT_EQ(ReadError("0,3\n", GraphFormat::kEdgeList, 4), "ok");
  EXPECT_EQ(ReadError("0,4\n", GraphFormat::kEdgeList, 4),
            "InvalidArgument: graph: 5 nodes exceed the node ceiling of 4");
  EXPECT_EQ(
      ReadError("*Vertices 1\n*Arcslist\n1 5\n", GraphFormat::kPajek, 4),
      "ParseError: pajek line 3: endpoint out of range");
}

TEST(IoTest, CountsPastTheNodeIdRangeAreRefused) {
  // With no budget the ceiling is the NodeId range. Each count used to
  // reach a cast or an allocation: the ASD count wrapped to 1, the list
  // target wrapped to vertex 1, the *Vertices count sized a label array.
  const uint64_t kRange = GraphBuildOptions().max_nodes;
  EXPECT_EQ(ReadError("4294967297 1\n0 1\n", GraphFormat::kAsd, kRange),
            "InvalidArgument: asd header: 4294967297 nodes exceed the node "
            "ceiling of 4294967295");
  EXPECT_EQ(ReadError("4294967296 0\n", GraphFormat::kMetis, kRange),
            "InvalidArgument: metis header: 4294967296 nodes exceed the node "
            "ceiling of 4294967295");
  EXPECT_EQ(ReadError("*Vertices 1\n*Arcslist\n1 4294967297\n",
                      GraphFormat::kPajek, kRange),
            "ParseError: pajek line 3: endpoint out of range");
  EXPECT_EQ(ReadError("*Vertices 4294967298\n*Arcs\n1 2\n",
                      GraphFormat::kPajek, kRange),
            "InvalidArgument: pajek *Vertices: 4294967298 nodes exceed the "
            "node ceiling of 4294967295");
}

}  // namespace
}  // namespace cyclerank
