#ifndef CYCLERANK_DATASETS_GENERATORS_H_
#define CYCLERANK_DATASETS_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace cyclerank {

/// Synthetic directed-graph generators.
///
/// The paper's pre-loaded datasets (WikiLinkGraphs, Amazon co-purchase,
/// Twitter interaction networks — §IV-B) are either huge or not publicly
/// redistributable, so the benchmark harness runs on synthetic graphs whose
/// structure matches the properties the experiments depend on (hubs,
/// clusters, reciprocity). All generators are
/// deterministic in their seed.

/// G(n, p): every ordered pair (u,v), u≠v, becomes an edge with
/// probability `edge_prob`.
struct ErdosRenyiConfig {
  NodeId num_nodes = 1000;
  double edge_prob = 0.01;
  uint64_t seed = 1;
};
Result<Graph> GenerateErdosRenyi(const ErdosRenyiConfig& config);

/// G(n, m): exactly `num_edges` distinct directed edges chosen uniformly.
Result<Graph> GenerateErdosRenyiM(NodeId num_nodes, uint64_t num_edges,
                                  uint64_t seed);

/// Directed preferential attachment: node t attaches `edges_per_node` out-
/// edges to targets sampled with probability ∝ (in-degree + 1); each target
/// reciprocates with probability `reciprocity` (needed for cycles — a DAG
/// has CycleRank 0 everywhere).
struct BarabasiAlbertConfig {
  NodeId num_nodes = 1000;
  uint32_t edges_per_node = 5;
  double reciprocity = 0.3;
  uint64_t seed = 1;
};
Result<Graph> GenerateBarabasiAlbert(const BarabasiAlbertConfig& config);

/// Directed Watts–Strogatz: ring where each node points to its `k` clockwise
/// successors; every edge is rewired to a uniform target with probability
/// `rewire_prob`.
struct WattsStrogatzConfig {
  NodeId num_nodes = 1000;
  uint32_t k = 4;
  double rewire_prob = 0.1;
  uint64_t seed = 1;
};
Result<Graph> GenerateWattsStrogatz(const WattsStrogatzConfig& config);

/// Stochastic block model: directed edges appear with `intra_prob` inside a
/// block and `inter_prob` across blocks.
struct SbmConfig {
  std::vector<NodeId> block_sizes = {250, 250, 250, 250};
  double intra_prob = 0.05;
  double inter_prob = 0.001;
  uint64_t seed = 1;
};
Result<Graph> GenerateSbm(const SbmConfig& config);

/// Wikipedia-like link graph: topical clusters with reciprocal links plus a
/// small set of globally-central hub articles that almost everything links
/// to but that rarely link back — the structure behind the paper's
/// "United States appears in every PPR top list" pathology (§I).
struct WikiLikeConfig {
  uint32_t num_clusters = 20;
  NodeId cluster_size = 50;
  uint32_t num_hubs = 5;           ///< globally central articles
  uint32_t intra_out_degree = 6;   ///< links to own-cluster articles
  double intra_reciprocity = 0.5;  ///< chance a topical link is returned
  double hub_attachment = 0.8;     ///< chance an article links to each hub
  uint32_t hub_out_degree = 10;    ///< few outgoing links from hubs
  double inter_cluster_prob = 0.01;
  uint64_t seed = 1;
};
Result<Graph> GenerateWikiLike(const WikiLikeConfig& config);

/// Amazon-co-purchase-like graph: genre clusters with high reciprocity
/// ("customers who bought X also bought Y" is nearly symmetric inside a
/// genre) plus bestseller nodes that receive links from every genre without
/// reciprocating — the "Harry Potter" effect of Table II.
struct AmazonLikeConfig {
  uint32_t num_genres = 15;
  NodeId genre_size = 60;
  uint32_t num_bestsellers = 8;
  uint32_t copurchase_out_degree = 5;
  double copurchase_reciprocity = 0.7;
  double bestseller_attachment = 0.5;
  uint64_t seed = 1;
};
Result<Graph> GenerateAmazonLike(const AmazonLikeConfig& config);

/// Twitter-interaction-like graph: communities of users with Zipf-distributed
/// activity, celebrity accounts that get mentioned from everywhere, low
/// reciprocity (retweets/mentions are one-directional), mirroring the
/// cop27 / 8m datasets (§IV-B).
struct TwitterLikeConfig {
  uint32_t num_communities = 10;
  NodeId community_size = 100;
  uint32_t num_celebrities = 6;
  uint32_t interactions_per_user = 8;  ///< mean; actual is Zipf-scaled
  double celebrity_attachment = 0.3;
  double reciprocity = 0.15;
  uint64_t seed = 1;
};
Result<Graph> GenerateTwitterLike(const TwitterLikeConfig& config);

}  // namespace cyclerank

#endif  // CYCLERANK_DATASETS_GENERATORS_H_
