// Golden pins for the edge-list reader and the CSR build. Each case pins
// the FNV-1a 64 hash of `Graph::Serialize()` (CSR arrays plus labels), or
// the exact error text, for: catalog datasets from all three sources, both
// as their generators build them and after an edge-list write/read round
// trip; a seeded wiki-like numeric body with hubs and unsorted rows; and a
// corpus of edge cases (line endings, delimiters, comments, spellings,
// mid-file demotion, id range errors, build options). Only the public
// string and file entry points are used, so the pins hold for any reader
// or builder implementation: a change that fails one changed an answer.

#include <cinttypes>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "datasets/catalog.h"
#include "graph/io.h"

namespace cyclerank {
namespace {

/// "n=<nodes> m=<edges> labeled=<0|1> fnv=<hash>" or "error: <status>".
std::string Outcome(const Result<Graph>& graph) {
  if (!graph.ok()) return "error: " + graph.status().ToString();
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64,
                binio::Fnv1a64(graph->Serialize()));
  return "n=" + std::to_string(graph->num_nodes()) +
         " m=" + std::to_string(graph->num_edges()) +
         " labeled=" + (graph->labels() != nullptr ? "1" : "0") +
         " fnv=" + hash;
}

Result<Graph> ReadEdgeListText(const std::string& text,
                               const GraphBuildOptions& build = {}) {
  return ReadGraphFromString(text, GraphFormat::kEdgeList, build);
}

GraphBuildOptions Build(bool deduplicate, bool drop_self_loops) {
  GraphBuildOptions build;
  build.deduplicate = deduplicate;
  build.drop_self_loops = drop_self_loops;
  return build;
}

TEST(EdgeListGoldenTest, CatalogDatasetsBuildAndRoundTrip) {
  const struct {
    const char* name;
    const char* built;
    const char* round_trip;
  } kCases[] = {
      {"amazon-copurchase",
       "n=908 m=10863 labeled=0 fnv=febf4ddc9ff9807b",
       "n=908 m=10863 labeled=0 fnv=febf4ddc9ff9807b"},
      {"amazon-books-mini",
       "n=167 m=318 labeled=1 fnv=de6e066887934747",
       "n=167 m=318 labeled=1 fnv=077f65065615a276"},
      {"er-1k",
       "n=1000 m=10042 labeled=0 fnv=d33832396d7ebd36",
       "n=1000 m=10042 labeled=0 fnv=d33832396d7ebd36"},
      {"ba-1k",
       "n=1000 m=6470 labeled=0 fnv=051b373e56bac2f2",
       "n=1000 m=6470 labeled=0 fnv=051b373e56bac2f2"},
      {"sbm-1k",
       "n=1000 m=13265 labeled=0 fnv=2ae43ef8b42cbbbd",
       "n=1000 m=13265 labeled=0 fnv=2ae43ef8b42cbbbd"},
      {"wikilink-en-2018",
       "n=1448 m=21477 labeled=0 fnv=dd737366313002cc",
       "n=1448 m=21477 labeled=0 fnv=dd737366313002cc"},
      {"wikilink-de-2003",
       "n=245 m=2924 labeled=0 fnv=5a6494504213724a",
       "n=245 m=2924 labeled=0 fnv=5a6494504213724a"},
      {"enwiki-mini-2018",
       "n=196 m=403 labeled=1 fnv=62fd178db14301e0",
       "n=196 m=403 labeled=1 fnv=1c2a5455cf2b0327"},
      {"fakenews-it",
       "n=11 m=25 labeled=1 fnv=8306ead8c214e9a5",
       "n=11 m=25 labeled=1 fnv=343f36c4430d46f7"},
      {"twitter-cop27",
       "n=1006 m=3353 labeled=0 fnv=17c6c09805e770b4",
       "n=1006 m=3353 labeled=0 fnv=17c6c09805e770b4"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    const Result<GraphPtr> graph = DatasetCatalog::BuiltIn().Load(c.name);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    EXPECT_EQ(Outcome(**graph), c.built);
    const std::string text =
        WriteGraphToString(**graph, GraphFormat::kEdgeList).value();
    EXPECT_EQ(Outcome(ReadEdgeListText(text)), c.round_trip);
    // A file goes through the same reader.
    const std::string path =
        ::testing::TempDir() + "/edgelist_golden_" + c.name + ".csv";
    ASSERT_TRUE(WriteGraphFile(**graph, path, GraphFormat::kEdgeList).ok());
    EXPECT_EQ(Outcome(ReadGraphFile(path)), c.round_trip);
    std::remove(path.c_str());
  }
}

/// A wiki-like numeric upload: rows grouped by source in id order, targets
/// unsorted, hubs with long rows, repeated links and self-loops.
std::string WikiLikeBody(uint64_t seed, uint32_t nodes) {
  Rng rng(seed);
  std::string out;
  for (uint32_t u = 0; u < nodes; ++u) {
    const uint64_t degree = rng.NextBounded(100) < 90
                                ? 1 + rng.NextBounded(8)
                                : 40 + rng.NextBounded(120);
    for (uint64_t e = 0; e < degree; ++e) {
      const uint64_t kind = rng.NextBounded(100);
      uint32_t v;
      if (kind < 40) {
        v = static_cast<uint32_t>(rng.NextBounded(16));  // hubs
      } else if (kind < 45) {
        v = u;  // self-loop
      } else {
        v = static_cast<uint32_t>(rng.NextBounded(nodes));
      }
      const std::string line =
          std::to_string(u) + ',' + std::to_string(v) + '\n';
      out += line;
      if (kind % 17 == 0) out += line;  // a repeated link
    }
  }
  return out;
}

TEST(EdgeListGoldenTest, SeededWikiLikeNumericBody) {
  const std::string body = WikiLikeBody(19, 3000);
  EXPECT_EQ(binio::Fnv1a64(body), 0x5d670b51cc38b685ULL);  // the body itself
  EXPECT_EQ(Outcome(ReadEdgeListText(body)),
            "n=3000 m=31259 labeled=0 fnv=32d2661d7fee4a8c");
  EXPECT_EQ(Outcome(ReadEdgeListText(body, Build(false, true))),
            "n=3000 m=41568 labeled=0 fnv=0350664ffeff58cf");
  EXPECT_EQ(Outcome(ReadEdgeListText(body, Build(true, false))),
            "n=3000 m=32099 labeled=0 fnv=8ef583a626b08e4a");
  EXPECT_EQ(Outcome(ReadEdgeListText(body, Build(false, false))),
            "n=3000 m=43634 labeled=0 fnv=4f0398f57082ee84");
}

TEST(EdgeListGoldenTest, EdgeCaseCorpus) {
  const GraphBuildOptions kDefault;
  const struct {
    const char* name;
    std::string body;
    GraphBuildOptions build;
    const char* expected;
  } kCases[] = {
      {"empty", "", kDefault,
       "n=0 m=0 labeled=0 fnv=463cd5ea02a5f42b"},
      {"only blanks and comments", "  \n\r\n# a\n% b\n\t\n", kDefault,
       "n=0 m=0 labeled=0 fnv=463cd5ea02a5f42b"},
      {"comma", "0,1\n1,2\n2,0\n", kDefault,
       "n=3 m=3 labeled=0 fnv=73bee7425631e5ab"},
      {"semicolon", "0;1\n1;2\n2;0\n", kDefault,
       "n=3 m=3 labeled=0 fnv=73bee7425631e5ab"},
      {"tab", "0\t1\n1\t2\n2\t0\n", kDefault,
       "n=3 m=3 labeled=0 fnv=73bee7425631e5ab"},
      {"space runs", "0 1\n 1   2 \n2\t 0\n", kDefault,
       "n=3 m=3 labeled=0 fnv=73bee7425631e5ab"},
      {"crlf", "0,1\r\n1,2\r\n\r\n2,0\r\n", kDefault,
       "n=3 m=3 labeled=0 fnv=73bee7425631e5ab"},
      {"crlf labeled", "a,b\r\nb,c\r\n", kDefault,
       "n=3 m=2 labeled=1 fnv=f1664efd5b8da1ee"},
      {"comments and blanks", "# c\n\n0,1\n  % c\n   \n1,2\n  # c\n", kDefault,
       "n=3 m=2 labeled=0 fnv=48bbd3438254b1bb"},
      {"missing trailing newline", "0,1\n1,2", kDefault,
       "n=3 m=2 labeled=0 fnv=48bbd3438254b1bb"},
      {"empty fields collapse", "0,,1\n,1,2,\n", kDefault,
       "n=3 m=2 labeled=0 fnv=48bbd3438254b1bb"},
      {"padded fields", " 0 , 1 \n1 ,2\n", kDefault,
       "n=3 m=2 labeled=0 fnv=48bbd3438254b1bb"},
      {"unsorted rows", "5,3\n5,1\n0,9\n5,2\n0,4\n9,0\n", kDefault,
       "n=10 m=6 labeled=0 fnv=65c718f0768d9cd9"},
      {"leading zeros stay numeric", "007,7\n7,008\n", kDefault,
       "n=9 m=1 labeled=0 fnv=de60c7123f9aed95"},
      {"minus zero stays numeric", "-0,1\n1,00\n", kDefault,
       "n=2 m=2 labeled=0 fnv=a46599f279e3428b"},
      {"spellings survive demotion",
       "007,7\n7,007\n-0,0\n00,0\nfoo,007\n", kDefault,
       "n=6 m=5 labeled=1 fnv=359f6dd18547cf99"},
      {"demotion mid-file", "3,1\n1,2\n2,3\nx,1\n1,y\n4,5\n0010,10\n", kDefault,
       "n=9 m=7 labeled=1 fnv=76f2e801ede67f10"},
      {"plus sign is a label", "+1,1\n", kDefault,
       "n=2 m=1 labeled=1 fnv=ab4a133cbbf39c82"},
      {"int64 overflow is a label", "99999999999999999999,1\n", kDefault,
       "n=2 m=1 labeled=1 fnv=09a44aa2040ecf48"},
      {"hex is a label", "0x1,1\n", kDefault,
       "n=2 m=1 labeled=1 fnv=3f549631c03686ca"},
      {"negative id", "0,1\n2,-1\n", kDefault,
       "error: ParseError: edgelist: negative node id"},
      {"id 2^32", "0,1\n4294967296,1\n", kDefault,
       "error: ParseError: edgelist: node id 4294967296 exceeds the 32-bit "
       "id range"},
      {"sentinel id", "4294967295,0\n", kDefault,
       "error: ParseError: edgelist: node id 4294967295 exceeds the 32-bit "
       "id range"},
      {"range error before negative", "4294967296,-1\n-1,0\n", kDefault,
       "error: ParseError: edgelist: negative node id"},
      {"range error on an earlier line", "4294967296,1\n-1,0\n", kDefault,
       "error: ParseError: edgelist: node id 4294967296 exceeds the 32-bit "
       "id range"},
      {"space-delimited labels", "a b\nb  c\n", kDefault,
       "n=3 m=2 labeled=1 fnv=f1664efd5b8da1ee"},
      {"negative before range error", "-1,4294967296\n", kDefault,
       "error: ParseError: edgelist: negative node id"},
      {"negative and huge ids as labels", "-1,2\n4294967296,3\nx,y\n", kDefault,
       "n=6 m=3 labeled=1 fnv=8fac9350d3a8f076"},
      {"three fields", "0,1\n1,2,3\n", kDefault,
       "error: ParseError: edgelist line 2: expected 2 fields, got 3"},
      {"one field after comments", "# c\n\n0,1\n7\n", kDefault,
       "error: ParseError: edgelist line 4: expected 2 fields, got 1"},
      {"field count beats id error", "-1,2\n3\n", kDefault,
       "error: ParseError: edgelist line 2: expected 2 fields, got 1"},
      {"field count after demotion", "a,b\nc\n", kDefault,
       "error: ParseError: edgelist line 2: expected 2 fields, got 1"},
      {"delimiter fixed by first data line", "0,1\n1 2\n", kDefault,
       "error: ParseError: edgelist line 2: expected 2 fields, got 1"},
      {"comma preferred over semicolon", "a;b,c\n", kDefault,
       "n=2 m=1 labeled=1 fnv=97448748bdd4a03f"},
      {"tab keeps inner spaces", "0\t1 2\nNew York\tBoston\n", kDefault,
       "n=4 m=2 labeled=1 fnv=18f0700e5826ea5f"},
      {"inner carriage return", "0,1\r1,2\n", kDefault,
       "error: ParseError: edgelist line 1: expected 2 fields, got 3"},
      {"space mode splits carriage return", "0 1\r2 3\n", kDefault,
       "error: ParseError: edgelist line 1: expected 2 fields, got 4"},
      {"labels with spaces", "Freddie Mercury,Queen (band)\n", kDefault,
       "n=2 m=1 labeled=1 fnv=accf1b1c3d4b3139"},
      {"isolated high id", "0,1\n7,7\n", kDefault,
       "n=8 m=1 labeled=0 fnv=056aa16726799c9b"},
      {"keep duplicates", "0,1\n0,1\n1,1\n2,0\n2,0\n", Build(false, true),
       "n=3 m=4 labeled=0 fnv=b6e6257ae05c43bd"},
      {"keep self-loops", "0,1\n0,1\n1,1\n2,0\n2,0\n", Build(true, false),
       "n=3 m=3 labeled=0 fnv=017d484181f86c29"},
      {"keep both", "0,1\n0,1\n1,1\n2,0\n2,0\n", Build(false, false),
       "n=3 m=5 labeled=0 fnv=34aa4dbe98a4e4bd"},
      {"labeled keep both", "a,b\na,b\nb,b\nc,a\n", Build(false, false),
       "n=3 m=4 labeled=1 fnv=3409836e5a65d038"},
      {"labeled default", "a,b\na,b\nb,b\nc,a\n", kDefault,
       "n=3 m=2 labeled=1 fnv=aab06fde99ab981e"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(Outcome(ReadEdgeListText(c.body, c.build)), c.expected)
        << c.name;
  }
}

}  // namespace
}  // namespace cyclerank
