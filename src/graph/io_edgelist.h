#ifndef CYCLERANK_GRAPH_IO_EDGELIST_H_
#define CYCLERANK_GRAPH_IO_EDGELIST_H_

#include <iosfwd>
#include <string_view>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"

namespace cyclerank {

/// Options for the edgelist (CSV) reader — the first of the three upload
/// formats supported by the demo (paper §IV-B).
struct EdgeListReadOptions {
  /// Field separator. `'\0'` detects it once, on the first data line, and
  /// applies it to the whole file: comma, semicolon, tab, or runs of
  /// whitespace, in that order of preference.
  char delimiter = '\0';

  /// When true, endpoint tokens are treated as labels even if they all look
  /// numeric; when false they must parse as non-negative integers. The
  /// default auto mode (nullopt semantics via `force_labeled=false` +
  /// fallback) treats a file as numeric iff every endpoint token parses as
  /// an integer, matching Gephi's CSV behaviour.
  bool force_labeled = false;

  GraphBuildOptions build;
};

/// Parses an edgelist: one `source<sep>target` pair per line. Lines starting
/// with `#` or `%` and blank lines are ignored. `content` is tokenized in
/// place.
Result<Graph> ReadEdgeList(std::string_view content,
                           const EdgeListReadOptions& options = {});

/// Serializes `g` as `u,v` lines (labels when present, ids otherwise).
Status WriteEdgeList(const Graph& g, std::ostream& out, char delimiter = ',');

}  // namespace cyclerank

#endif  // CYCLERANK_GRAPH_IO_EDGELIST_H_
