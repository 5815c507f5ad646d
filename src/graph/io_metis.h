#ifndef CYCLERANK_GRAPH_IO_METIS_H_
#define CYCLERANK_GRAPH_IO_METIS_H_

#include <iosfwd>
#include <string_view>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"

namespace cyclerank {

/// METIS graph format — added beyond the paper's three upload formats
/// ("we support three dataset formats and we plan to add new ones in the
/// future", §V).
///
/// Grammar handled (unweighted subset):
/// ```
///   % comment
///   N M          <- node count, *undirected* edge count
///   v1 v2 ...    <- line i (1-based): the neighbours of node i
/// ```
/// A blank line is a node with no neighbours; `%` lines are skipped
/// everywhere.
/// METIS is an undirected format: each edge appears in both endpoint
/// lines; the reader emits one directed edge per listed neighbour, so a
/// well-formed METIS file round-trips into a symmetric directed graph.
/// The optional `fmt`/`ncon` header fields (weights) are rejected as
/// unsupported rather than silently misread. `content` is read in place;
/// `N` past `build.max_nodes` is refused as soon as the header is parsed.
Result<Graph> ReadMetis(std::string_view content,
                        const GraphBuildOptions& build = {});

/// Serializes `g` as METIS. The graph must be symmetric (u→v iff v→u),
/// since the format cannot represent one-directional edges; fails with
/// InvalidArgument otherwise.
Status WriteMetis(const Graph& g, std::ostream& out);

}  // namespace cyclerank

#endif  // CYCLERANK_GRAPH_IO_METIS_H_
