#include "platform/params.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace cyclerank {
namespace {

TEST(ParamMapTest, ParsesKeyValuePairs) {
  const ParamMap params = ParamMap::Parse("k=3, sigma=exp, alpha=0.3").value();
  EXPECT_EQ(params.size(), 3u);
  EXPECT_EQ(params.GetString("k", ""), "3");
  EXPECT_EQ(params.GetString("sigma", ""), "exp");
}

TEST(ParamMapTest, KeysAreCaseInsensitive) {
  const ParamMap params = ParamMap::Parse("K=3, Sigma=exp").value();
  EXPECT_TRUE(params.Has("k"));
  EXPECT_TRUE(params.Has("SIGMA"));
  EXPECT_EQ(params.GetString("sigma", ""), "exp");
}

TEST(ParamMapTest, ValuesKeepSpaces) {
  const ParamMap params = ParamMap::Parse("source=Fake news").value();
  EXPECT_EQ(params.GetString("source", ""), "Fake news");
}

TEST(ParamMapTest, SemicolonSeparatorAndEmptySegments) {
  const ParamMap params = ParamMap::Parse("a=1; b=2,,c=3,").value();
  EXPECT_EQ(params.size(), 3u);
}

TEST(ParamMapTest, EmptyStringIsEmptyMap) {
  EXPECT_TRUE(ParamMap::Parse("").value().empty());
  EXPECT_TRUE(ParamMap::Parse("   ").value().empty());
}

TEST(ParamMapTest, RejectsMalformedPairs) {
  EXPECT_FALSE(ParamMap::Parse("novalue").ok());
  EXPECT_FALSE(ParamMap::Parse("=5").ok());
  EXPECT_FALSE(ParamMap::Parse("a=1, a=2").ok());  // duplicate
}

TEST(ParamMapTest, TypedGettersWithFallback) {
  const ParamMap params = ParamMap::Parse("alpha=0.3, k=5").value();
  EXPECT_DOUBLE_EQ(params.GetDouble("alpha", 0.85).value(), 0.3);
  EXPECT_DOUBLE_EQ(params.GetDouble("missing", 0.85).value(), 0.85);
  EXPECT_EQ(params.GetInt("k", 3).value(), 5);
  EXPECT_EQ(params.GetInt("missing", 3).value(), 3);
}

TEST(ParamMapTest, TypedGettersRejectMalformedValues) {
  const ParamMap params = ParamMap::Parse("alpha=abc").value();
  EXPECT_FALSE(params.GetDouble("alpha", 0.85).ok());
}

TEST(ParamMapTest, ToStringCanonicalOrder) {
  const ParamMap params = ParamMap::Parse("z=1, a=2").value();
  EXPECT_EQ(params.ToString(), "a=2, z=1");
}

TEST(ParamMapTest, KeysSorted) {
  const ParamMap params = ParamMap::Parse("k=3, alpha=0.3").value();
  EXPECT_EQ(params.Keys(), (std::vector<std::string>{"alpha", "k"}));
}

Graph LabeledGraph() {
  GraphBuilder builder;
  builder.AddEdge("Fake news", "CNN");
  builder.AddEdge("CNN", "Fake news");
  return builder.Build().value();
}

TEST(BuildRequestTest, ResolvesReferenceByLabel) {
  const Graph g = LabeledGraph();
  const ParamMap params = ParamMap::Parse("source=Fake news, k=3").value();
  const AlgorithmRequest request = BuildRequest(g, params).value();
  EXPECT_EQ(request.reference, g.FindNode("Fake news"));
  EXPECT_EQ(request.max_cycle_length, 3u);
}

TEST(BuildRequestTest, ResolvesNumericReferenceOnUnlabeledGraph) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  const Graph g = builder.Build().value();
  const ParamMap params = ParamMap::Parse("source=1").value();
  EXPECT_EQ(BuildRequest(g, params).value().reference, 1u);
}

TEST(BuildRequestTest, NumericReferenceBeyondNodeIdRangeIsNotFound) {
  GraphBuilder builder;
  builder.AddEdge(0, 5);
  const Graph g = builder.Build().value();
  EXPECT_EQ(BuildRequest(g, ParamMap::Parse("source=5").value())
                .value()
                .reference,
            5u);
  // 2^32 + 5 must not wrap to node 5.
  EXPECT_EQ(BuildRequest(g, ParamMap::Parse("source=4294967301").value())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(BuildRequestTest, AcceptsReferenceAliases) {
  const Graph g = LabeledGraph();
  EXPECT_EQ(BuildRequest(g, ParamMap::Parse("reference=CNN").value())
                .value()
                .reference,
            g.FindNode("CNN"));
  EXPECT_EQ(BuildRequest(g, ParamMap::Parse("r=CNN").value()).value().reference,
            g.FindNode("CNN"));
}

TEST(BuildRequestTest, UnknownReferenceIsNotFound) {
  const Graph g = LabeledGraph();
  EXPECT_EQ(BuildRequest(g, ParamMap::Parse("source=BBC").value())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(BuildRequestTest, ParsesAllNumericKnobs) {
  const Graph g = LabeledGraph();
  const ParamMap params =
      ParamMap::Parse(
          "alpha=0.5, k=4, sigma=lin, tolerance=1e-8, max_iterations=50, "
          "epsilon=1e-5, walks=1234, seed=9, top_k=7")
          .value();
  const AlgorithmRequest request = BuildRequest(g, params).value();
  EXPECT_DOUBLE_EQ(request.alpha, 0.5);
  EXPECT_EQ(request.max_cycle_length, 4u);
  EXPECT_EQ(request.scoring, ScoringFunction::kLinear);
  EXPECT_DOUBLE_EQ(request.tolerance, 1e-8);
  EXPECT_EQ(request.max_iterations, 50u);
  EXPECT_DOUBLE_EQ(request.epsilon, 1e-5);
  EXPECT_EQ(request.num_walks, 1234u);
  EXPECT_EQ(request.seed, 9u);
  EXPECT_EQ(request.top_k, 7u);
}

TEST(BuildRequestTest, DefaultsWhenAbsent) {
  const Graph g = LabeledGraph();
  const AlgorithmRequest request = BuildRequest(g, ParamMap()).value();
  EXPECT_EQ(request.reference, kInvalidNode);
  EXPECT_DOUBLE_EQ(request.alpha, 0.85);
  EXPECT_EQ(request.max_cycle_length, 3u);
  EXPECT_EQ(request.scoring, ScoringFunction::kExponential);
  EXPECT_EQ(request.num_shards, 0u);  // monolithic execution
}

TEST(BuildRequestTest, ParsesShardCount) {
  const Graph g = LabeledGraph();
  EXPECT_EQ(BuildRequest(g, ParamMap::Parse("shards=4").value())
                .value()
                .num_shards,
            4u);
  EXPECT_EQ(BuildRequest(g, ParamMap::Parse("shards=0").value())
                .value()
                .num_shards,
            0u);
  // Anywhere in [0, 2^16) is accepted; the cap and anything non-numeric
  // are rejected with a range-stating error.
  EXPECT_EQ(BuildRequest(g, ParamMap::Parse("shards=65535").value())
                .value()
                .num_shards,
            65535u);
  EXPECT_FALSE(BuildRequest(g, ParamMap::Parse("shards=-1").value()).ok());
  const auto capped = BuildRequest(g, ParamMap::Parse("shards=65536").value());
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(capped.status().message().find("shards"), std::string::npos);
  EXPECT_FALSE(BuildRequest(g, ParamMap::Parse("shards=many").value()).ok());
}

TEST(BuildRequestTest, RejectsIntegersBeyondTheirFieldRange) {
  const Graph g = LabeledGraph();
  // Each would otherwise wrap on narrowing (max_iterations=2^32 ran zero
  // iterations), or, for walks, size the Monte-Carlo shard table.
  for (const char* text :
       {"k=4294967296", "maxloop=4294967296", "max_iterations=4294967296",
        "threads=4294967296", "walks=4294967297", "walks=1000000000000",
        "walks=4611686018427387904"}) {
    const auto request = BuildRequest(g, ParamMap::Parse(text).value());
    ASSERT_FALSE(request.ok()) << text;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << text;
  }
  // The caps themselves are accepted.
  const ParamMap caps =
      ParamMap::Parse("k=4294967295, max_iterations=4294967295, "
                      "walks=4294967296")
          .value();
  const AlgorithmRequest request = BuildRequest(g, caps).value();
  EXPECT_EQ(request.max_cycle_length, 4294967295u);
  EXPECT_EQ(request.max_iterations, 4294967295u);
  EXPECT_EQ(request.num_walks, uint64_t{1} << 32);
}

TEST(BuildRequestTest, RejectsUnknownKeys) {
  const Graph g = LabeledGraph();
  const ParamMap params = ParamMap::Parse("alhpa=0.3").value();  // typo
  EXPECT_EQ(BuildRequest(g, params).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BuildRequestTest, RejectsBadScoringName) {
  const Graph g = LabeledGraph();
  EXPECT_FALSE(BuildRequest(g, ParamMap::Parse("sigma=cubic").value()).ok());
}

TEST(BuildRequestTest, MaxloopAliasForK) {
  const Graph g = LabeledGraph();
  EXPECT_EQ(
      BuildRequest(g, ParamMap::Parse("maxloop=5").value()).value()
          .max_cycle_length,
      5u);
}

std::string Fp(const std::string& dataset, const std::string& algorithm,
               const std::string& params) {
  return TaskFingerprint(dataset, algorithm, ParamMap::Parse(params).value());
}

TEST(TaskFingerprintTest, OrderAndCaseIndependent) {
  EXPECT_EQ(Fp("d", "pagerank", "alpha=0.85, K=3"),
            Fp("d", "pagerank", "k=3, alpha=0.85"));
  EXPECT_EQ(Fp("d", "PageRank", ""), Fp("d", "pagerank", ""));
}

TEST(TaskFingerprintTest, ThreadsIsExecutionOnly) {
  // threads= changes latency, never results (kernels are bit-identical at
  // any thread count), so it must not fragment the cache.
  EXPECT_EQ(Fp("d", "pagerank", "alpha=0.85, threads=8"),
            Fp("d", "pagerank", "alpha=0.85"));
  EXPECT_EQ(Fp("d", "pagerank", "threads=1"), Fp("d", "pagerank", "threads=4"));
}

TEST(TaskFingerprintTest, ShardsIsExecutionOnly) {
  // Like threads=, the shard count only picks an execution strategy: the
  // sharded kernels are bit-identical to the monolithic path, so two
  // submissions differing only in shards= must share one cached result.
  EXPECT_EQ(Fp("d", "pagerank", "alpha=0.85, shards=8"),
            Fp("d", "pagerank", "alpha=0.85"));
  EXPECT_EQ(Fp("d", "pagerank", "shards=1"), Fp("d", "pagerank", "shards=4"));
  EXPECT_EQ(Fp("d", "pagerank", "threads=2, shards=3"),
            Fp("d", "pagerank", ""));
}

TEST(TaskFingerprintTest, ParameterAliasesCollapse) {
  EXPECT_EQ(Fp("d", "cyclerank", "source=a"), Fp("d", "cyclerank", "reference=a"));
  EXPECT_EQ(Fp("d", "cyclerank", "source=a"), Fp("d", "cyclerank", "r=a"));
  EXPECT_EQ(Fp("d", "cyclerank", "maxloop=5"), Fp("d", "cyclerank", "k=5"));
  EXPECT_EQ(Fp("d", "cyclerank", "sigma=exp"), Fp("d", "cyclerank", "scoring=exp"));
  // BuildRequest lets maxloop override k when both are given.
  EXPECT_EQ(Fp("d", "cyclerank", "k=3, maxloop=5"), Fp("d", "cyclerank", "k=5"));
}

TEST(TaskFingerprintTest, AlgorithmAliasesCollapse) {
  EXPECT_EQ(Fp("d", "ppr", "source=a"), Fp("d", "pers_pagerank", "source=a"));
  EXPECT_EQ(Fp("d", "pr", ""), Fp("d", "pagerank", ""));
  EXPECT_EQ(Fp("d", "PageRank", ""), Fp("d", "pagerank", ""));
  // Unknown (custom-registered) names stay verbatim: the registry is
  // case-sensitive for them, so "MyAlgo" and "myalgo" can be two different
  // algorithms and must never share a cache slot.
  EXPECT_NE(Fp("d", "MyAlgo", ""), Fp("d", "myalgo", ""));
}

TEST(TaskFingerprintTest, DistinctComputationsStayDistinct) {
  EXPECT_NE(Fp("d1", "pagerank", ""), Fp("d2", "pagerank", ""));
  EXPECT_NE(Fp("d", "pagerank", ""), Fp("d", "cheirank", ""));
  EXPECT_NE(Fp("d", "pagerank", "alpha=0.85"), Fp("d", "pagerank", "alpha=0.9"));
  EXPECT_NE(Fp("d", "pagerank", "alpha=0.85"), Fp("d", "pagerank", ""));
  EXPECT_NE(Fp("d", "ppr_montecarlo", "seed=1"),
            Fp("d", "ppr_montecarlo", "seed=2"));
}

TEST(TaskFingerprintTest, GenerationSeparatesRebindings) {
  // Re-binding an uploaded name after eviction changes its generation, so
  // the two bindings' computations can never share a cache or
  // single-flight key.
  EXPECT_NE(TaskFingerprint("d", 1, "pagerank", ParamMap()),
            TaskFingerprint("d", 2, "pagerank", ParamMap()));
  EXPECT_EQ(TaskFingerprint("d", "pagerank", ParamMap()),
            TaskFingerprint("d", 0, "pagerank", ParamMap()));
  // A user parameter named "gen" sorts into the params section and cannot
  // reach the structural generation slot.
  ParamMap with_gen;
  with_gen.Set("gen", "2");
  EXPECT_NE(TaskFingerprint("d", 2, "pagerank", ParamMap()),
            TaskFingerprint("d", 0, "pagerank", with_gen));
}

TEST(TaskFingerprintTest, SeparatorsAreEscaped) {
  // Adversarial names containing the fingerprint separators must not make
  // two different specs collide.
  EXPECT_NE(TaskFingerprint("a&algorithm", "b", ParamMap()),
            TaskFingerprint("a", "algorithm&b", ParamMap()));
  ParamMap tricky;
  tricky.Set("seed", "1&alpha=2");
  ParamMap plain = ParamMap::Parse("seed=1, alpha=2").value();
  EXPECT_NE(TaskFingerprint("d", "pagerank", tricky),
            TaskFingerprint("d", "pagerank", plain));
}

}  // namespace
}  // namespace cyclerank
