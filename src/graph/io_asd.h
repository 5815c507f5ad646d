#ifndef CYCLERANK_GRAPH_IO_ASD_H_
#define CYCLERANK_GRAPH_IO_ASD_H_

#include <iosfwd>

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
Result<Graph> ReadAsd(std::istream& in, const GraphBuildOptions& build = {});

/// Serializes `g` in ASD form (`N M` header + 0-based edge lines).
Status WriteAsd(const Graph& g, std::ostream& out);

}  // namespace cyclerank

#endif  // CYCLERANK_GRAPH_IO_ASD_H_
