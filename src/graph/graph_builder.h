#ifndef CYCLERANK_GRAPH_GRAPH_BUILDER_H_
#define CYCLERANK_GRAPH_GRAPH_BUILDER_H_

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/label_map.h"

namespace cyclerank {

/// Options controlling `GraphBuilder::Build`.
struct GraphBuildOptions {
  /// Collapse parallel edges into one. The relevance algorithms treat the
  /// graph as simple (the paper's datasets are link graphs), so this
  /// defaults to true.
  bool deduplicate = true;

  /// Drop u→u edges. Self-loops never participate in cycles of length ≥ 2
  /// and distort PageRank's out-degree normalization, so they are dropped
  /// by default; readers expose the flag for faithful round-trips.
  bool drop_self_loops = true;

  /// The most nodes a graph may have. Each reader checks a declared count
  /// where it parses it, and `Build` checks the implied one, before either
  /// allocates for it. `Datastore::UploadDataset` lowers it to what the
  /// graph-store budget can hold (2^28 without a budget); the default is
  /// the whole `NodeId` range.
  uint64_t max_nodes = kInvalidNode;

  /// OK when a graph of `nodes` nodes fits `max_nodes` (and `NodeId`);
  /// otherwise InvalidArgument naming both, prefixed by `what`.
  Status CheckNodes(uint64_t nodes, std::string_view what) const;
};

/// Parses the integer `token` read on line `line_no` of a `format` file;
/// otherwise a ParseError "<format> line <n>: invalid integer '<token>'".
Result<int64_t> ParseLineInt64(std::string_view format, size_t line_no,
                               std::string_view token);

/// Accumulates edges and produces an immutable CSR `Graph`.
///
/// Two usage styles, which may be mixed only in the sense that labeled
/// builders may also receive numeric ids that were obtained from
/// `AddNode`/`AddEdge(label, label)`:
///
///  * numeric: `AddEdge(NodeId, NodeId)` — the node count is
///    `max(id) + 1` (or an explicit `ReserveNodes` floor);
///  * labeled: `AddEdge("Pasta", "Italy")` — ids are assigned densely in
///    first-appearance order and the resulting graph carries a `LabelMap`.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Ensures the built graph has at least `n` nodes (isolated nodes are
  /// permitted — a Wikipedia snapshot may contain articles with no links).
  void ReserveNodes(NodeId n);

  /// Reserves room for `edges` pending edges (an upper bound is fine).
  void ReserveEdges(size_t edges) { edges_.reserve(edges); }

  /// Appends the edge u→v using numeric ids.
  void AddEdge(NodeId u, NodeId v);

  /// Registers `label` (if new) and returns its id.
  NodeId AddNode(std::string_view label);

  /// Appends the edge `from`→`to` by label, registering labels as needed.
  void AddEdge(std::string_view from, std::string_view to);

  /// Number of edges accumulated so far (before dedup / self-loop drops).
  size_t PendingEdges() const { return edges_.size(); }

  /// Finalizes the graph in linear time: two stable counting sorts (on the
  /// target, then on the source) leave every out-row sorted, repeats are
  /// dropped row by row, and the in-CSR is the transpose. A node count past
  /// `options.max_nodes` is refused before anything is allocated. On
  /// success the builder is left empty and reusable.
  Result<Graph> Build(const GraphBuildOptions& options = {});

  /// Convenience: `Build` wrapped into a shared pointer.
  Result<GraphPtr> BuildShared(const GraphBuildOptions& options = {});

 private:
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::unique_ptr<LabelMap> labels_;
  NodeId min_nodes_ = 0;
};

}  // namespace cyclerank

#endif  // CYCLERANK_GRAPH_GRAPH_BUILDER_H_
