// Golden pins for the graph readers and the CSR build. Each case pins
// the FNV-1a 64 hash of `Graph::Serialize()` (CSR arrays plus labels), or
// the exact error text, for: catalog datasets from all three sources, both
// as their generators build them and after a write/read round trip in
// every format; a seeded wiki-like numeric body with hubs and unsorted
// rows; and a corpus of edge cases per format (line endings, delimiters,
// comments, spellings, sections, count and range errors, build options).
// Only the public string and file entry points are used, so the pins hold
// for any reader or builder implementation: a change that fails one
// changed an answer.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "datasets/catalog.h"
#include "graph/io.h"
#include "graph/transforms.h"

namespace cyclerank {
namespace {

std::string Hex(uint64_t value) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, value);
  return hex;
}

/// "n=<nodes> m=<edges> labeled=<0|1> fnv=<hash>" or "error: <status>".
std::string Outcome(const Result<Graph>& graph) {
  if (!graph.ok()) return "error: " + graph.status().ToString();
  return "n=" + std::to_string(graph->num_nodes()) +
         " m=" + std::to_string(graph->num_edges()) +
         " labeled=" + (graph->labels() != nullptr ? "1" : "0") +
         " fnv=" + Hex(binio::Fnv1a64(graph->Serialize()));
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

/// A scratch path that no other test process on the host uses.
std::string ScratchPath(const std::string& name) {
  return ::testing::TempDir() + "/reader_golden_" +
         std::to_string(::getpid()) + "_" + name;
}

struct CorpusCase {
  const char* name;
  std::string body;
  GraphBuildOptions build;
  const char* expected;
};

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
    const std::string path = ScratchPath(std::string(c.name) + ".csv");
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

std::vector<CorpusCase> EdgeListCorpus() {
  const GraphBuildOptions kDefault;
  return {
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
}

TEST(EdgeListGoldenTest, EdgeCaseCorpus) {
  for (const auto& c : EdgeListCorpus()) {
    EXPECT_EQ(Outcome(ReadEdgeListText(c.body, c.build)), c.expected)
        << c.name;
  }
}

/// Writes `g` in `format` and reads it back through a string and through
/// a file; both reads must agree. Returns "text=<hash> <outcome>".
std::string RoundTrip(const Graph& g, GraphFormat format,
                      const std::string& name) {
  const Result<std::string> text = WriteGraphToString(g, format);
  if (!text.ok()) return "error: " + text.status().ToString();
  const std::string from_string = Outcome(ReadGraphFromString(*text, format));
  const std::string path =
      ScratchPath(name + "." + std::string(GraphFormatToString(format)));
  const Status written = WriteGraphFile(g, path, format);
  const std::string from_file =
      written.ok() ? Outcome(ReadGraphFile(path, format))
                   : "error: " + written.ToString();
  std::remove(path.c_str());
  EXPECT_EQ(from_file, from_string) << name << " through a file";
  return "text=" + Hex(binio::Fnv1a64(*text)) + " " + from_string;
}

TEST(ReaderGoldenTest, CatalogDatasetsRoundTripInEveryFormat) {
  const struct {
    const char* name;
    const char* pajek;
    const char* asd;
    const char* metis;  // of the symmetrized graph
  } kCases[] = {
      {"amazon-books-mini",
       "text=4e2f7e489103dbc0 n=167 m=318 labeled=1 fnv=de6e066887934747",
       "text=f2bf7aa76790dbbb n=167 m=318 labeled=0 fnv=b7c5759a9fb077df",
       "text=47018d5fc0b837da n=167 m=604 labeled=0 fnv=47e308fe6af5481b"},
      {"ba-1k",
       "text=68d688f140d22245 n=1000 m=6470 labeled=0 fnv=051b373e56bac2f2",
       "text=cb6c1d9138af054a n=1000 m=6470 labeled=0 fnv=051b373e56bac2f2",
       "text=609621647404f83a n=1000 m=9952 labeled=0 fnv=fb90ab7b0b36846f"},
      {"wikilink-de-2003",
       "text=1c7dfd83e785fc3d n=245 m=2924 labeled=0 fnv=5a6494504213724a",
       "text=7b741ee037a20b8b n=245 m=2924 labeled=0 fnv=5a6494504213724a",
       "text=0e63e357923d5945 n=245 m=4406 labeled=0 fnv=5c51614e83019f8f"},
      {"enwiki-mini-2018",
       "text=0d1cf7b03c90de59 n=196 m=403 labeled=1 fnv=62fd178db14301e0",
       "text=72a1c10ffb29ec7e n=196 m=403 labeled=0 fnv=c42e8940996eeff0",
       "text=362776d8018675cf n=196 m=776 labeled=0 fnv=41773cf9a7d2488f"},
      {"fakenews-it",
       "text=6fbea310a6baa94a n=11 m=25 labeled=1 fnv=8306ead8c214e9a5",
       "text=4b3001ca34a03054 n=11 m=25 labeled=0 fnv=6d20c09c6c0f4b69",
       "text=d0dadf59293948b6 n=11 m=38 labeled=0 fnv=f993597b1a99778b"},
      {"twitter-cop27",
       "text=bec63dc129861f3c n=1006 m=3353 labeled=0 fnv=17c6c09805e770b4",
       "text=94a9fe9460bf1e7a n=1006 m=3353 labeled=0 fnv=17c6c09805e770b4",
       "text=1a60365df5a60f52 n=1006 m=6268 labeled=0 fnv=e03023e2b8179697"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    const Result<GraphPtr> graph = DatasetCatalog::BuiltIn().Load(c.name);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    EXPECT_EQ(RoundTrip(**graph, GraphFormat::kPajek, c.name), c.pajek);
    EXPECT_EQ(RoundTrip(**graph, GraphFormat::kAsd, c.name), c.asd);
    const Graph symmetric = Symmetrize(**graph).value();
    EXPECT_EQ(RoundTrip(symmetric, GraphFormat::kMetis, c.name), c.metis);
  }
}

std::vector<CorpusCase> PajekCorpus() {
  const GraphBuildOptions kDefault;
  return {
      {"labeled arcs",
       "*Vertices 3\n1 \"a\"\n2 \"b\"\n3 \"c\"\n*Arcs\n1 2\n2 3\n3 1\n",
       kDefault, "n=3 m=3 labeled=1 fnv=94020b210f2f9c7e"},
      {"unlabeled arcs", "*Vertices 3\n*Arcs\n1 2\n2 3\n3 1\n", kDefault,
       "n=3 m=3 labeled=0 fnv=73bee7425631e5ab"},
      {"edges are undirected", "*Vertices 3\n*Edges\n1 2\n2 3\n", kDefault,
       "n=3 m=4 labeled=0 fnv=c47944d26e6b62ab"},
      {"labeled edges",
       "*Vertices 3\n1 \"a\"\n2 \"b\"\n3 \"c\"\n*Edges\n1 2\n2 3\n", kDefault,
       "n=3 m=4 labeled=1 fnv=d681203af29b9b7e"},
      {"arcslist", "*Vertices 4\n*Arcslist\n1 2 3 4\n2 1\n", kDefault,
       "n=4 m=4 labeled=0 fnv=f03454abd3758649"},
      {"labeled arcslist",
       "*Vertices 3\n1 \"x\"\n2 \"y\"\n3 \"z\"\n*Arcslist\n1 2 3\n3 1\n",
       kDefault, "n=3 m=3 labeled=1 fnv=aec1d60959243b03"},
      {"edgeslist", "*Vertices 3\n*Edgeslist\n1 2 3\n", kDefault,
       "n=3 m=4 labeled=0 fnv=a5da0969cf9f3f8b"},
      {"mixed sections",
       "*Vertices 4\n*Arcs\n1 2\n*Edges\n3 4\n*Arcslist\n2 3 4\n", kDefault,
       "n=4 m=5 labeled=0 fnv=041c1664fc7196df"},
      {"weights ignored", "*Vertices 2\n*Arcs\n1 2 3.5\n2 1 x\n", kDefault,
       "n=2 m=2 labeled=0 fnv=a46599f279e3428b"},
      {"vertex coordinates ignored",
       "*Vertices 2\n1 \"a\" 0.1 0.2 0.5\n2 \"b\" ic Red\n*Arcs\n1 2\n",
       kDefault, "n=2 m=1 labeled=1 fnv=af04ead125922041"},
      {"comments and blanks", "% c\n\n*Vertices 2\n  % c\n\n*Arcs\n  1 2  \n\n",
       kDefault, "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"crlf", "*Vertices 2\r\n1 \"a\"\r\n2 \"b\"\r\n\r\n*Arcs\r\n1 2\r\n",
       kDefault, "n=2 m=1 labeled=1 fnv=af04ead125922041"},
      {"crlf unlabeled", "*Vertices 2\r\n*Arcs\r\n1 2\r\n2 1\r\n", kDefault,
       "n=2 m=2 labeled=0 fnv=a46599f279e3428b"},
      {"missing trailing newline", "*Vertices 2\n*Arcs\n1 2", kDefault,
       "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"case-insensitive keywords", "*VERTICES 2\n*arcs\n1 2\n", kDefault,
       "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"keyword with extra fields", "*Vertices 2 2\n*Arcs :1 \"name\"\n1 2\n",
       kDefault, "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"partial labels", "*Vertices 3\n1 \"named\"\n*Arcs\n2 3\n", kDefault,
       "n=3 m=1 labeled=1 fnv=c7c4cd7c606355d8"},
      {"labels out of order", "*Vertices 3\n3 \"c\"\n1 \"a\"\n*Arcs\n1 3\n",
       kDefault, "n=3 m=1 labeled=1 fnv=8c709d3ca5589dbf"},
      {"labels with spaces",
       "*Vertices 2\n1 \"Fake news\"\n2 \"Open data\"\n*Arcs\n2 1\n", kDefault,
       "n=2 m=1 labeled=1 fnv=4601fae9eba1746a"},
      {"duplicate labels",
       "*Vertices 3\n1 \"x\"\n2 \"x\"\n3 \"y\"\n*Arcs\n1 2\n2 3\n", kDefault,
       "error: ParseError: pajek: vertices 1 and 2 share the label 'x'"},
      {"label equals a synthetic name",
       "*Vertices 3\n1 \"v2\"\n*Arcs\n1 2\n2 3\n", kDefault,
       "error: ParseError: pajek: vertex 1's label 'v2' is the synthetic name "
       "of unlabeled vertex 2"},
      {"label equals an earlier synthetic name",
       "*Vertices 3\n3 \"v1\"\n*Arcs\n1 2\n", kDefault,
       "error: ParseError: pajek: vertex 3's label 'v1' is the synthetic name "
       "of unlabeled vertex 1"},
      {"duplicate labels far apart",
       "*Vertices 4\n4 \"x\"\n2 \"x\"\n*Arcs\n1 2\n", kDefault,
       "error: ParseError: pajek: vertices 2 and 4 share the label 'x'"},
      {"vertex labeled twice", "*Vertices 2\n1 \"a\"\n1 \"b\"\n*Arcs\n1 2\n",
       kDefault, "n=2 m=1 labeled=1 fnv=a2ef774ebea5f997"},
      {"empty quotes are no label", "*Vertices 2\n1 \"\"\n*Arcs\n1 2\n",
       kDefault, "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"unclosed quote is no label", "*Vertices 2\n1 \"abc\n*Arcs\n1 2\n",
       kDefault, "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"unquoted label is ignored", "*Vertices 2\n1 abc\n*Arcs\n1 2\n",
       kDefault, "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"isolated vertices", "*Vertices 5\n*Arcs\n1 2\n", kDefault,
       "n=5 m=1 labeled=0 fnv=9dd242192f08c33b"},
      {"vertices only", "*Vertices 3\n", kDefault,
       "n=3 m=0 labeled=0 fnv=8c7153e612ea7bcb"},
      {"zero vertices", "*Vertices 0\n", kDefault,
       "n=0 m=0 labeled=0 fnv=463cd5ea02a5f42b"},
      {"arcs before vertices", "*Arcs\n1 2\n*Vertices 3\n", kDefault,
       "error: ParseError: pajek line 1: '*arcs' section before *Vertices"},
      {"empty arcslist before vertices", "% c\n*Arcslist\n*Vertices 3\n",
       kDefault,
       "error: ParseError: pajek line 2: '*arcslist' section before "
       "*Vertices"},
      {"second vertices section",
       "*Vertices 2\n1 \"a\"\n*Vertices 3\n*Arcs\n1 2\n", kDefault,
       "n=3 m=1 labeled=1 fnv=afef55411f6e704d"},
      {"arcslist past the declared count", "*Vertices 2\n*Arcslist\n1 5\n",
       kDefault, "error: ParseError: pajek line 3: endpoint out of range"},
      {"arcslist source past the declared count",
       "*Vertices 2\n*Arcslist\n3 1\n", kDefault,
       "error: ParseError: pajek line 3: endpoint out of range"},
      {"edgeslist past the declared count", "*Vertices 2\n*Edgeslist\n1 2 3\n",
       kDefault, "error: ParseError: pajek line 3: endpoint out of range"},
      {"second vertices below an earlier arc",
       "*Vertices 5\n*Arcs\n1 5\n*Vertices 4\n", kDefault,
       "error: ParseError: pajek line 4: *Vertices 4 is below vertex 5 of an "
       "earlier arc"},
      {"second vertices covering every arc",
       "*Vertices 5\n*Arcs\n1 4\n*Vertices 4\n", kDefault,
       "n=4 m=1 labeled=0 fnv=34d40452cffdf259"},
      {"default drops loops and repeats", "*Vertices 2\n*Arcs\n1 2\n1 2\n2 2\n",
       kDefault, "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"keep both", "*Vertices 2\n*Arcs\n1 2\n1 2\n2 2\n", Build(false, false),
       "n=2 m=3 labeled=0 fnv=f2ae14438cf66339"},
      {"labeled keep both",
       "*Vertices 2\n1 \"a\"\n2 \"b\"\n*Arcs\n1 2\n1 2\n2 2\n",
       Build(false, false), "n=2 m=3 labeled=1 fnv=75fe2c7759e16c07"},
      {"labeled edges keep duplicates",
       "*Vertices 2\n1 \"a\"\n*Edges\n1 2\n2 1\n", Build(false, true),
       "n=2 m=4 labeled=1 fnv=7c00ba1972c495f2"},
      {"empty", "", kDefault,
       "error: ParseError: pajek: missing *Vertices section"},
      {"missing vertices", "*Arcs\n1 2\n", kDefault,
       "error: ParseError: pajek line 1: '*arcs' section before *Vertices"},
      {"comments only", "% c\n\n", kDefault,
       "error: ParseError: pajek: missing *Vertices section"},
      {"empty section header", "*Vertices 2\n*\n", kDefault,
       "error: ParseError: pajek line 2: empty section header"},
      {"vertices without count", "% c\n*Vertices\n", kDefault,
       "error: ParseError: pajek line 2: *Vertices requires a count"},
      {"vertices count not an integer", "*Vertices two\n", kDefault,
       "error: ParseError: pajek line 1: invalid integer 'two'"},
      {"negative vertex count", "*Vertices -1\n", kDefault,
       "error: ParseError: pajek line 1: negative vertex count"},
      {"unknown section", "*Vertices 2\n*Bogus\n", kDefault,
       "error: ParseError: pajek line 2: unknown section '*bogus'"},
      {"data before any section", "% c\n1 2\n", kDefault,
       "error: ParseError: pajek line 2: data before any section header"},
      {"vertex id zero", "*Vertices 2\n0 \"x\"\n", kDefault,
       "error: ParseError: pajek line 2: vertex id out of range"},
      {"vertex id past the count", "*Vertices 2\n\n5 \"x\"\n", kDefault,
       "error: ParseError: pajek line 3: vertex id out of range"},
      {"vertex id not an integer", "*Vertices 2\nx \"a\"\n", kDefault,
       "error: ParseError: pajek line 2: invalid integer 'x'"},
      {"arc with one endpoint", "*Vertices 2\n*Arcs\n1\n", kDefault,
       "error: ParseError: pajek line 3: expected 'u v'"},
      {"arc endpoint zero", "*Vertices 2\n*Arcs\n0 1\n", kDefault,
       "error: ParseError: pajek line 3: endpoint out of range"},
      {"arc endpoint past the count", "*Vertices 2\n*Arcs\n1 3\n", kDefault,
       "error: ParseError: pajek line 3: endpoint out of range"},
      {"edge endpoint past the count", "*Vertices 2\n*Edges\n3 1\n", kDefault,
       "error: ParseError: pajek line 3: endpoint out of range"},
      {"arc endpoint not an integer", "*Vertices 2\n*Arcs\n1 b\n", kDefault,
       "error: ParseError: pajek line 3: invalid integer 'b'"},
      {"arcslist with one entry", "*Vertices 2\n*Arcslist\n1\n", kDefault,
       "error: ParseError: pajek line 3: expected 'u v...'"},
      {"arcslist source zero", "*Vertices 2\n*Arcslist\n0 1\n", kDefault,
       "error: ParseError: pajek line 3: endpoint out of range"},
      {"arcslist target zero", "*Vertices 2\n*Arcslist\n1 2 0\n", kDefault,
       "error: ParseError: pajek line 3: endpoint out of range"},
      {"edgeslist target not an integer", "*Vertices 2\n*Edgeslist\n1 z\n",
       kDefault, "error: ParseError: pajek line 3: invalid integer 'z'"},
      {"error line counts comments", "% a\n% b\n*Vertices 2\n*Arcs\n\n1 9\n",
       kDefault, "error: ParseError: pajek line 6: endpoint out of range"},
  };
}

std::vector<CorpusCase> MetisCorpus() {
  const GraphBuildOptions kDefault;
  return {
      {"triangle", "3 3\n2 3\n1 3\n1 2\n", kDefault,
       "n=3 m=6 labeled=0 fnv=6be59dd55ead5b2b"},
      {"blank line is an empty row", "3 1\n2\n1\n\n", kDefault,
       "n=3 m=2 labeled=0 fnv=af272ea3ee581c4b"},
      {"blank row in the middle", "3 1\n2\n\n1\n", kDefault,
       "n=3 m=2 labeled=0 fnv=77695c43f88461cb"},
      {"whitespace-only row is empty", "3 1\n2\n1\n \t \n", kDefault,
       "n=3 m=2 labeled=0 fnv=af272ea3ee581c4b"},
      {"comments between rows", "% c\n3 1\n2\n% c\n1\n\n", kDefault,
       "n=3 m=2 labeled=0 fnv=af272ea3ee581c4b"},
      {"blanks and comments before the header", "\n% c\n\n2 1\n2\n1\n",
       kDefault, "n=2 m=2 labeled=0 fnv=a46599f279e3428b"},
      {"crlf", "2 1\r\n2\r\n1\r\n", kDefault,
       "n=2 m=2 labeled=0 fnv=a46599f279e3428b"},
      {"crlf blank row", "3 1\r\n2\r\n1\r\n\r\n", kDefault,
       "n=3 m=2 labeled=0 fnv=af272ea3ee581c4b"},
      {"missing trailing newline", "2 1\n2\n1", kDefault,
       "n=2 m=2 labeled=0 fnv=a46599f279e3428b"},
      {"one-directional count", "2 1\n2\n\n", kDefault,
       "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"self-loop listed once", "2 1\n1\n\n", kDefault,
       "n=2 m=0 labeled=0 fnv=be00150fa30e742b"},
      {"self-loop kept", "2 1\n1\n\n", Build(true, false),
       "n=2 m=1 labeled=0 fnv=c26da9bcd1143c4b"},
      {"repeated neighbour", "2 2\n2 2\n1 1\n", kDefault,
       "n=2 m=2 labeled=0 fnv=a46599f279e3428b"},
      {"repeated neighbour kept", "2 2\n2 2\n1 1\n", Build(false, true),
       "n=2 m=4 labeled=0 fnv=8ad495fa1a5034ab"},
      {"trailing blanks", "2 1\n2\n1\n\n\n  \n", kDefault,
       "n=2 m=2 labeled=0 fnv=a46599f279e3428b"},
      {"trailing comment", "2 1\n2\n1\n% end\n", kDefault,
       "n=2 m=2 labeled=0 fnv=a46599f279e3428b"},
      {"zero nodes", "0 0\n", kDefault,
       "n=0 m=0 labeled=0 fnv=463cd5ea02a5f42b"},
      {"padded header", "  4   2  \n2\n1\n4\n3\n", kDefault,
       "n=4 m=4 labeled=0 fnv=95566763920091ab"},
      {"empty", "", kDefault, "error: ParseError: metis: missing header"},
      {"only comments", "% a\n\n% b\n", kDefault,
       "error: ParseError: metis: missing header"},
      {"header with one field", "3\n", kDefault,
       "error: ParseError: metis: header must be 'N M'"},
      {"weighted header", "3 3 011\n", kDefault,
       "error: Unimplemented: metis: weighted graphs (fmt/ncon header "
       "fields) are not supported"},
      {"header not an integer", "a 1\n", kDefault,
       "error: ParseError: metis line 1: invalid integer 'a'"},
      {"negative node count", "-1 0\n", kDefault,
       "error: ParseError: metis: negative count in header"},
      {"negative edge count", "2 -1\n", kDefault,
       "error: ParseError: metis: negative count in header"},
      {"neighbour past the count", "2 1\n3\n\n", kDefault,
       "error: ParseError: metis line 2: neighbour 3 out of range [1, 2]"},
      {"neighbour zero", "% c\n2 1\n\n0\n", kDefault,
       "error: ParseError: metis line 4: neighbour 0 out of range [1, 2]"},
      {"neighbour not an integer", "2 1\nx\n\n", kDefault,
       "error: ParseError: metis line 2: invalid integer 'x'"},
      {"comment after a neighbour", "2 1\n2 % c\n1\n", kDefault,
       "error: ParseError: metis line 2: invalid integer '%'"},
      {"missing rows", "3 1\n2\n1\n", kDefault,
       "error: ParseError: metis: expected 3 adjacency lines, found 2"},
      {"missing rows after comments", "3 1\n2\n% c\n", kDefault,
       "error: ParseError: metis: expected 3 adjacency lines, found 1"},
      {"edge count mismatch", "2 5\n2\n1\n", kDefault,
       "error: ParseError: metis: header declares 5 edges but 2 neighbour "
       "entries were listed"},
      {"trailing data", "2 1\n2\n1\n1 2\n", kDefault,
       "error: ParseError: metis: trailing data at line 4"},
      {"trailing data after blanks", "2 1\n2\n1\n\n% c\n\n7\n", kDefault,
       "error: ParseError: metis: trailing data at line 7"},
  };
}

std::vector<CorpusCase> AsdCorpus() {
  const GraphBuildOptions kDefault;
  return {
      {"cycle", "3 3\n0 1\n1 2\n2 0\n", kDefault,
       "n=3 m=3 labeled=0 fnv=73bee7425631e5ab"},
      {"isolated nodes", "10 1\n0 1\n", kDefault,
       "n=10 m=1 labeled=0 fnv=c26d8330b642b57b"},
      {"unsorted edges", "5 4\n4 0\n0 3\n4 1\n0 2\n", kDefault,
       "n=5 m=4 labeled=0 fnv=5be7e6f5e592decf"},
      {"comments and blanks", "# generated\n\n2 1\n# edge follows\n\n0 1\n",
       kDefault, "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"crlf", "3 2\r\n0 1\r\n\r\n1 2\r\n", kDefault,
       "n=3 m=2 labeled=0 fnv=48bbd3438254b1bb"},
      {"tabs and padding", "\t3  2 \n 0\t1\n1   2\t\n", kDefault,
       "n=3 m=2 labeled=0 fnv=48bbd3438254b1bb"},
      {"missing trailing newline", "2 1\n0 1", kDefault,
       "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"trailing blanks and comments", "2 1\n0 1\n\n# end\n  \n", kDefault,
       "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"zero nodes", "0 0\n", kDefault,
       "n=0 m=0 labeled=0 fnv=463cd5ea02a5f42b"},
      {"default drops loops and repeats", "2 3\n0 1\n0 1\n1 1\n", kDefault,
       "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb"},
      {"keep both", "2 3\n0 1\n0 1\n1 1\n", Build(false, false),
       "n=2 m=3 labeled=0 fnv=f2ae14438cf66339"},
      {"empty", "", kDefault, "error: ParseError: asd: missing 'N M' header"},
      {"only comments", "# only comments\n\n", kDefault,
       "error: ParseError: asd: missing 'N M' header"},
      {"percent is not a comment", "% c\n2 1\n0 1\n", kDefault,
       "error: ParseError: asd line 1: invalid integer '%'"},
      {"header with one field", "3\n", kDefault,
       "error: ParseError: asd line 1: header must be 'N M'"},
      {"header with three fields", "# c\n3 2 1\n", kDefault,
       "error: ParseError: asd line 2: header must be 'N M'"},
      {"header not an integer", "3 x\n", kDefault,
       "error: ParseError: asd line 1: invalid integer 'x'"},
      {"negative node count", "-1 0\n", kDefault,
       "error: ParseError: asd: negative count in header"},
      {"negative edge count", "2 -3\n", kDefault,
       "error: ParseError: asd: negative count in header"},
      {"too few edges", "3 2\n0 1\n", kDefault,
       "error: ParseError: asd: expected 2 edges, found 1"},
      {"trailing data", "2 1\n0 1\n1 0\n", kDefault,
       "error: ParseError: asd: trailing data after 1 edges (line 3)"},
      {"endpoint past the count", "2 1\n0 2\n", kDefault,
       "error: ParseError: asd line 2: endpoint out of range [0, 2)"},
      {"negative endpoint", "2 1\n-1 0\n", kDefault,
       "error: ParseError: asd line 2: endpoint out of range [0, 2)"},
      {"edge line with three fields", "2 1\n0 1 2\n", kDefault,
       "error: ParseError: asd line 2: expected 'u v'"},
      {"edge line with one field", "2 1\n\n0\n", kDefault,
       "error: ParseError: asd line 3: expected 'u v'"},
      {"endpoint not an integer", "2 1\n0 b\n", kDefault,
       "error: ParseError: asd line 2: invalid integer 'b'"},
      {"comma edge line", "2 1\n0,1\n", kDefault,
       "error: ParseError: asd line 2: expected 'u v'"},
  };
}

void ExpectCorpus(GraphFormat format, const std::vector<CorpusCase>& corpus) {
  for (const auto& c : corpus) {
    EXPECT_EQ(Outcome(ReadGraphFromString(c.body, format, c.build)),
              c.expected)
        << c.name;
  }
}

TEST(ReaderGoldenTest, PajekCorpus) {
  ExpectCorpus(GraphFormat::kPajek, PajekCorpus());
}

TEST(ReaderGoldenTest, MetisCorpus) {
  ExpectCorpus(GraphFormat::kMetis, MetisCorpus());
}

TEST(ReaderGoldenTest, AsdCorpus) {
  ExpectCorpus(GraphFormat::kAsd, AsdCorpus());
}

TEST(ReaderGoldenTest, SniffedBodies) {
  EXPECT_EQ(Outcome(ReadGraphFromString("*Vertices 2\n*Arcs\n1 2\n")),
            "n=2 m=1 labeled=0 fnv=2e0f7780596ecbfb");
  EXPECT_EQ(Outcome(ReadGraphFromString("# c\n3 2\n0 1\n1 2\n")),
            "n=3 m=2 labeled=0 fnv=48bbd3438254b1bb");
  EXPECT_EQ(Outcome(ReadGraphFromString("3 1\n0 1\n1 2\n")),
            "n=4 m=3 labeled=0 fnv=2e022df9a16d291b");
}

// Seeded byte mutations of the corpora above: whatever a body turns into,
// a reader must return a graph within the node ceiling or an error, never
// crash, trip a sanitizer or allocate for a graph past the ceiling.
// `tools/verify.sh --faults` sweeps it over CYCLERANK_FAULT_SEED values
// under ASan+UBSan; unset, it runs one fixed seed.

uint64_t FaultSeed() {
  const char* raw = std::getenv("CYCLERANK_FAULT_SEED");
  return raw == nullptr ? 1 : std::strtoull(raw, nullptr, 10);
}

/// Applies one mutation to `*body`: a flipped byte, an inserted byte, an
/// inserted token (huge counts, section headers, line ends), a deleted
/// run or a truncation.
void Mutate(Rng& rng, std::string* body) {
  static const char* const kTokens[] = {
      "4294967294", "4294967297", "18446744073709551615", "65", "-1", "0",
      "\n",         "\r\n",       " ",                    ",",  "\"", "%",
      "#",          "*Vertices ", "*Arcslist\n",          "*Edges\n"};
  const size_t size = body->size();
  switch (rng.NextBounded(5)) {
    case 0:
      if (size > 0) {
        (*body)[rng.NextBounded(size)] ^=
            static_cast<char>(1 + rng.NextBounded(255));
      }
      break;
    case 1:
      body->insert(rng.NextBounded(size + 1), 1,
                   static_cast<char>(rng.NextBounded(256)));
      break;
    case 2:
      body->insert(rng.NextBounded(size + 1),
                   kTokens[rng.NextBounded(std::size(kTokens))]);
      break;
    case 3:
      if (size > 0) {
        const size_t at = rng.NextBounded(size);
        body->erase(at, 1 + rng.NextBounded(std::min<size_t>(8, size - at)));
      }
      break;
    default:
      body->resize(rng.NextBounded(size + 1));
      break;
  }
}

TEST(ReaderMutationTest, SeededMutationsParseOrFail) {
  const uint64_t seed = FaultSeed();
  SCOPED_TRACE("CYCLERANK_FAULT_SEED=" + std::to_string(seed));
  constexpr uint64_t kMaxNodes = 64;
  const auto check = [&](const Result<Graph>& graph, const std::string& body) {
    if (!graph.ok()) {
      const StatusCode code = graph.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kUnimplemented)
          << graph.status().ToString() << " for body '" << body << "'";
      return;
    }
    EXPECT_LE(graph->num_nodes(), kMaxNodes) << "body '" << body << "'";
    EXPECT_TRUE(Graph::Deserialize(graph->Serialize()).ok());
  };
  const struct {
    GraphFormat format;
    std::vector<CorpusCase> corpus;
  } kFormats[] = {{GraphFormat::kEdgeList, EdgeListCorpus()},
                  {GraphFormat::kPajek, PajekCorpus()},
                  {GraphFormat::kMetis, MetisCorpus()},
                  {GraphFormat::kAsd, AsdCorpus()}};
  Rng rng(seed);
  for (const auto& [format, corpus] : kFormats) {
    SCOPED_TRACE(std::string(GraphFormatToString(format)));
    for (int round = 0; round < 5000; ++round) {
      const CorpusCase& c = corpus[rng.NextBounded(corpus.size())];
      std::string body = c.body;
      for (uint64_t i = 1 + rng.NextBounded(4); i > 0; --i) {
        Mutate(rng, &body);
      }
      GraphBuildOptions build = c.build;
      build.max_nodes = kMaxNodes;
      check(ReadGraphFromString(body, format, build), body);
      check(ReadGraphFromString(body, build), body);  // sniffed
    }
  }
}

}  // namespace
}  // namespace cyclerank
