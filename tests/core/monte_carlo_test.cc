#include "core/monte_carlo.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "core/pagerank.h"
#include "core/ranking.h"
#include "datasets/catalog.h"
#include "datasets/generators.h"
#include "graph/graph_builder.h"

namespace cyclerank {
namespace {

TEST(MonteCarloTest, VisitFrequencyConvergesToExactPpr) {
  BarabasiAlbertConfig config;
  config.num_nodes = 100;
  config.edges_per_node = 4;
  config.reciprocity = 0.4;
  config.seed = 31;
  const Graph g = GenerateBarabasiAlbert(config).value();
  PageRankOptions exact_options;
  exact_options.tolerance = 1e-13;
  const PageRankScores exact =
      ComputePersonalizedPageRank(g, 0, exact_options).value();
  MonteCarloOptions options;
  options.num_walks = 400000;
  options.seed = 7;
  const MonteCarloScores mc = ComputeMonteCarloPpr(g, 0, options).value();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(mc.scores[u], exact.scores[u], 0.01) << "node " << u;
  }
  // The head of the distribution should be tight.
  EXPECT_NEAR(mc.scores[0], exact.scores[0], 0.003);
}

TEST(MonteCarloTest, EndpointEstimatorAlsoConverges) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  const Graph g = builder.Build().value();
  PageRankOptions exact_options;
  exact_options.tolerance = 1e-13;
  const PageRankScores exact =
      ComputePersonalizedPageRank(g, 0, exact_options).value();
  MonteCarloOptions options;
  options.estimator = MonteCarloEstimator::kEndpoint;
  options.num_walks = 400000;
  options.seed = 11;
  const MonteCarloScores mc = ComputeMonteCarloPpr(g, 0, options).value();
  for (NodeId u = 0; u < 3; ++u) {
    EXPECT_NEAR(mc.scores[u], exact.scores[u], 0.01) << "node " << u;
  }
}

TEST(MonteCarloTest, ScoresFormDistribution) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  const Graph g = builder.Build().value();
  for (auto estimator : {MonteCarloEstimator::kVisitFrequency,
                         MonteCarloEstimator::kEndpoint}) {
    MonteCarloOptions options;
    options.estimator = estimator;
    options.num_walks = 10000;
    const MonteCarloScores mc = ComputeMonteCarloPpr(g, 0, options).value();
    double sum = 0.0;
    for (double s : mc.scores) {
      EXPECT_GE(s, 0.0);
      sum += s;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(MonteCarloTest, DeterministicForFixedSeed) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  const Graph g = builder.Build().value();
  MonteCarloOptions options;
  options.num_walks = 1000;
  options.seed = 42;
  const MonteCarloScores a = ComputeMonteCarloPpr(g, 0, options).value();
  const MonteCarloScores b = ComputeMonteCarloPpr(g, 0, options).value();
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_EQ(a.total_steps, b.total_steps);
}

TEST(MonteCarloTest, DifferentSeedsDiffer) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  const Graph g = builder.Build().value();
  MonteCarloOptions a, b;
  a.num_walks = b.num_walks = 1000;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(ComputeMonteCarloPpr(g, 0, a).value().scores,
            ComputeMonteCarloPpr(g, 0, b).value().scores);
}

TEST(MonteCarloTest, UnreachableNodesNeverVisited) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(2, 0);  // 2 not reachable from 0
  const Graph g = builder.Build().value();
  MonteCarloOptions options;
  options.num_walks = 20000;
  const MonteCarloScores mc = ComputeMonteCarloPpr(g, 0, options).value();
  EXPECT_DOUBLE_EQ(mc.scores[2], 0.0);
}

TEST(MonteCarloTest, TopKAgreesWithExactOnSeparatedGraph) {
  BarabasiAlbertConfig config;
  config.num_nodes = 60;
  config.edges_per_node = 3;
  config.reciprocity = 0.5;
  config.seed = 23;
  const Graph g = GenerateBarabasiAlbert(config).value();
  PageRankOptions exact_options;
  exact_options.tolerance = 1e-13;
  const auto exact = ComputePersonalizedPageRank(g, 1, exact_options).value();
  MonteCarloOptions options;
  options.num_walks = 300000;
  options.seed = 3;
  const auto mc = ComputeMonteCarloPpr(g, 1, options).value();
  // Top-3 by exact PPR should appear in the MC top-5.
  const auto top_exact = TopKNodes(ScoresToRankedList(exact.scores), 3);
  const auto top_mc = TopKNodes(ScoresToRankedList(mc.scores), 5);
  for (NodeId u : top_exact) {
    EXPECT_NE(std::find(top_mc.begin(), top_mc.end(), u), top_mc.end())
        << "node " << u;
  }
}

TEST(MonteCarloTest, RejectsBadArguments) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  const Graph g = builder.Build().value();
  EXPECT_EQ(ComputeMonteCarloPpr(g, 9).status().code(),
            StatusCode::kOutOfRange);
  MonteCarloOptions options;
  options.num_walks = 0;
  EXPECT_EQ(ComputeMonteCarloPpr(g, 0, options).status().code(),
            StatusCode::kInvalidArgument);
  // Above the cap the call is refused before its shard table is built; at
  // 2^62 walks that table alone would need 2^48 RNGs.
  options.num_walks = kMaxMonteCarloWalks + 1;
  EXPECT_EQ(ComputeMonteCarloPpr(g, 0, options).status().code(),
            StatusCode::kInvalidArgument);
  options.num_walks = uint64_t{1} << 62;
  EXPECT_EQ(ComputeMonteCarloPpr(g, 0, options).status().code(),
            StatusCode::kInvalidArgument);
  options.num_walks = 10;
  options.alpha = 0.0;
  EXPECT_EQ(ComputeMonteCarloPpr(g, 0, options).status().code(),
            StatusCode::kInvalidArgument);
}

// Golden pins: total_steps and an FNV-1a hash of the scores' IEEE-754 bytes,
// from source 0 with the default alpha and seed. The values were recorded
// before the walk loop was last optimised; an optimisation that changes
// any output bit fails here. The datasets cover 0, 1 and 12 dangling
// nodes; neither walk count is a multiple of the 16384-walk shard, and
// max_walk_length=3 runs the cap path.
TEST(MonteCarloTest, GoldenPins) {
  const struct {
    const char* dataset;
    MonteCarloEstimator estimator;
    uint64_t num_walks;
    uint32_t max_walk_length;
    uint64_t total_steps;
    uint64_t scores_hash;
  } kPins[] = {
      {"amazon-copurchase", MonteCarloEstimator::kVisitFrequency, 100000,
       10000, 665090, 0x57e908d5f793e126ull},
      {"amazon-copurchase", MonteCarloEstimator::kVisitFrequency, 40001,
       10000, 265781, 0x5fad797a62d3defbull},
      {"amazon-copurchase", MonteCarloEstimator::kVisitFrequency, 40001, 3,
       127501, 0x05e7bcbdcfd2ab2full},
      {"amazon-copurchase", MonteCarloEstimator::kEndpoint, 100000, 10000,
       100000, 0x0fc85a846e036530ull},
      {"amazon-copurchase", MonteCarloEstimator::kEndpoint, 40001, 10000,
       40001, 0x902ef43e7b127f3dull},
      {"amazon-copurchase", MonteCarloEstimator::kEndpoint, 40001, 3, 40001,
       0x26567a0822ad1f05ull},
      {"er-1k", MonteCarloEstimator::kVisitFrequency, 100000, 10000, 665329,
       0x4edc7405650c59feull},
      {"er-1k", MonteCarloEstimator::kVisitFrequency, 40001, 10000, 265843,
       0x4736454264a62155ull},
      {"er-1k", MonteCarloEstimator::kVisitFrequency, 40001, 3, 127501,
       0x0e2d7c2f73d01fffull},
      {"er-1k", MonteCarloEstimator::kEndpoint, 100000, 10000, 100000,
       0xfa0f57202101aab7ull},
      {"er-1k", MonteCarloEstimator::kEndpoint, 40001, 10000, 40001,
       0xd4d76c70797db4e9ull},
      {"er-1k", MonteCarloEstimator::kEndpoint, 40001, 3, 40001,
       0x387e79a049a129ccull},
      {"enwiki-mini-2018", MonteCarloEstimator::kVisitFrequency, 100000,
       10000, 667074, 0x2ab2ed44f066c162ull},
      {"enwiki-mini-2018", MonteCarloEstimator::kVisitFrequency, 40001,
       10000, 265080, 0xf1f392bd0439c597ull},
      {"enwiki-mini-2018", MonteCarloEstimator::kVisitFrequency, 40001, 3,
       127279, 0xe418f3fbf8fc4dedull},
      {"enwiki-mini-2018", MonteCarloEstimator::kEndpoint, 100000, 10000,
       100000, 0x1323ab42e208c58dull},
      {"enwiki-mini-2018", MonteCarloEstimator::kEndpoint, 40001, 10000,
       40001, 0x38b5a6d5cce77cedull},
      {"enwiki-mini-2018", MonteCarloEstimator::kEndpoint, 40001, 3, 40001,
       0x84b35eecbf7c2dfaull},
  };
  for (const auto& pin : kPins) {
    const GraphPtr g = DatasetCatalog::BuiltIn().Load(pin.dataset).value();
    for (uint32_t threads : {1u, 4u}) {
      MonteCarloOptions options;
      options.estimator = pin.estimator;
      options.num_walks = pin.num_walks;
      options.max_walk_length = pin.max_walk_length;
      options.num_threads = threads;
      const MonteCarloScores mc = ComputeMonteCarloPpr(*g, 0, options).value();
      std::string bytes;
      for (double s : mc.scores) binio::AppendDouble(&bytes, s);
      const std::string where =
          std::string(pin.dataset) + " estimator=" +
          std::to_string(static_cast<int>(pin.estimator)) +
          " walks=" + std::to_string(pin.num_walks) +
          " max_len=" + std::to_string(pin.max_walk_length) +
          " threads=" + std::to_string(threads);
      EXPECT_EQ(mc.total_steps, pin.total_steps) << where;
      EXPECT_EQ(binio::Fnv1a64(bytes), pin.scores_hash) << where;
    }
  }
}

}  // namespace
}  // namespace cyclerank
