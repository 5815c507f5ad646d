#include "graph/graph_builder.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/strings.h"

namespace cyclerank {
namespace {

/// One stable counting-sort pass into a CSR with `n` rows. `for_each(emit)`
/// calls `emit(row, value)` once per entry, the same way each time it is
/// called (it runs twice: count, then fill); row `r` lists the values
/// emitted for `r` in emission order.
template <typename ForEach>
void CountingSort(NodeId n, const ForEach& for_each,
                  std::vector<uint64_t>* offsets, std::vector<NodeId>* values) {
  offsets->assign(size_t{n} + 1, 0);
  for_each([&](NodeId row, NodeId) { ++(*offsets)[row + 1]; });
  std::partial_sum(offsets->begin(), offsets->end(), offsets->begin());
  values->resize(offsets->back());
  std::vector<uint64_t> cursor(offsets->begin(), offsets->end() - 1);
  for_each([&](NodeId row, NodeId value) {
    (*values)[cursor[row]++] = value;
  });
}

/// Calls `fn(row, value)` for every entry of a CSR, rows in ascending order.
template <typename Fn>
void ForEachEntry(const std::vector<uint64_t>& offsets,
                  const std::vector<NodeId>& values, const Fn& fn) {
  for (size_t row = 0; row + 1 < offsets.size(); ++row) {
    for (uint64_t e = offsets[row]; e < offsets[row + 1]; ++e) {
      fn(static_cast<NodeId>(row), values[e]);
    }
  }
}

/// Drops the repeats within each sorted row, compacting the CSR in place.
void DedupSortedRows(std::vector<uint64_t>* offsets,
                     std::vector<NodeId>* values) {
  uint64_t kept = 0;
  uint64_t begin = 0;
  for (size_t row = 0; row + 1 < offsets->size(); ++row) {
    const uint64_t end = (*offsets)[row + 1];
    for (uint64_t e = begin; e < end; ++e) {
      if (e == begin || (*values)[e] != (*values)[kept - 1]) {
        (*values)[kept++] = (*values)[e];
      }
    }
    (*offsets)[row + 1] = kept;
    begin = end;
  }
  if (kept != values->size()) {
    values->resize(kept);
    values->shrink_to_fit();
  }
}

}  // namespace

Status GraphBuildOptions::CheckNodes(uint64_t nodes,
                                     std::string_view what) const {
  const uint64_t ceiling = std::min<uint64_t>(max_nodes, kInvalidNode);
  if (nodes <= ceiling) return Status::OK();
  return Status::InvalidArgument(std::string(what) + ": " +
                                 std::to_string(nodes) +
                                 " nodes exceed the node ceiling of " +
                                 std::to_string(ceiling));
}

Result<int64_t> ParseLineInt64(std::string_view format, size_t line_no,
                               std::string_view token) {
  Result<int64_t> value = ParseInt64(token);
  if (value.ok()) return value;
  return Status::ParseError(std::string(format) + " line " +
                            std::to_string(line_no) + ": invalid integer '" +
                            std::string(token) + "'");
}

void GraphBuilder::ReserveNodes(NodeId n) {
  min_nodes_ = std::max(min_nodes_, n);
}

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  edges_.emplace_back(u, v);
}

NodeId GraphBuilder::AddNode(std::string_view label) {
  if (!labels_) labels_ = std::make_unique<LabelMap>();
  const NodeId id = labels_->GetOrAdd(label);
  min_nodes_ = std::max<NodeId>(min_nodes_, id + 1);
  return id;
}

void GraphBuilder::AddEdge(std::string_view from, std::string_view to) {
  // Two statements: argument evaluation order is unspecified, and ids must
  // be assigned in (from, to) order for first-appearance numbering.
  const NodeId u = AddNode(from);
  const NodeId v = AddNode(to);
  AddEdge(u, v);
}

Result<Graph> GraphBuilder::Build(const GraphBuildOptions& options) {
  // Determine the node count, in 64 bits so that id kInvalidNode cannot
  // wrap it to 0.
  uint64_t count = min_nodes_;
  for (const auto& [u, v] : edges_) {
    count = std::max<uint64_t>(count, uint64_t{std::max(u, v)} + 1);
  }
  if (labels_) count = std::max<uint64_t>(count, labels_->size());
  CYCLERANK_RETURN_NOT_OK(options.CheckNodes(count, "graph"));
  const NodeId n = static_cast<NodeId>(count);

  // A radix sort of the (source, target) pairs in two stable counting
  // sorts: on the target first, then on the source, reading the first
  // result target by target so that every out-row comes out sorted.
  Graph g;
  {
    std::vector<uint64_t> by_target_offsets;
    std::vector<NodeId> by_target;
    CountingSort(
        n,
        [&](const auto& emit) {
          for (const auto& [u, v] : edges_) {
            if (u != v || !options.drop_self_loops) emit(v, u);
          }
        },
        &by_target_offsets, &by_target);
    std::vector<std::pair<NodeId, NodeId>>().swap(edges_);
    CountingSort(
        n,
        [&](const auto& emit) {
          ForEachEntry(by_target_offsets, by_target,
                       [&](NodeId v, NodeId u) { emit(u, v); });
        },
        &g.out_offsets_, &g.out_targets_);
  }
  if (options.deduplicate) DedupSortedRows(&g.out_offsets_, &g.out_targets_);
  // The transpose: scanning sources in ascending order fills every in-row
  // sorted.
  CountingSort(
      n,
      [&](const auto& emit) {
        ForEachEntry(g.out_offsets_, g.out_targets_,
                     [&](NodeId u, NodeId v) { emit(v, u); });
      },
      &g.in_offsets_, &g.in_sources_);

  if (labels_) {
    g.labels_ = std::shared_ptr<const LabelMap>(std::move(labels_));
    labels_.reset();
  }
  min_nodes_ = 0;
  g.memory_bytes_ = g.ComputeMemoryBytes();
  return g;
}

Result<GraphPtr> GraphBuilder::BuildShared(const GraphBuildOptions& options) {
  CYCLERANK_ASSIGN_OR_RETURN(Graph g, Build(options));
  return GraphPtr(std::make_shared<Graph>(std::move(g)));
}

}  // namespace cyclerank
