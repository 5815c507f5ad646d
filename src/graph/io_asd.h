#ifndef CYCLERANK_GRAPH_IO_ASD_H_
#define CYCLERANK_GRAPH_IO_ASD_H_

#include <iosfwd>
#include <string_view>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"

namespace cyclerank {

/// ASD format — the demo authors' own format (§IV-B), matching the input of
/// the original `cyclerank` C++ implementation:
/// ```
///   # optional comments
///   N M          <- node count, edge count
///   u v          <- M lines, 0-based endpoints, u,v < N
/// ```
/// `content` is read in place. `N` past `build.max_nodes` is refused as
/// soon as the header is parsed.
Result<Graph> ReadAsd(std::string_view content,
                      const GraphBuildOptions& build = {});

/// Serializes `g` in ASD form (`N M` header + 0-based edge lines).
Status WriteAsd(const Graph& g, std::ostream& out);

}  // namespace cyclerank

#endif  // CYCLERANK_GRAPH_IO_ASD_H_
