#ifndef CYCLERANK_GRAPH_IO_PAJEK_H_
#define CYCLERANK_GRAPH_IO_PAJEK_H_

#include <iosfwd>
#include <string_view>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"

namespace cyclerank {

/// Pajek `.net` support — the second upload format of the demo (§IV-B).
///
/// Grammar handled (case-insensitive keywords, 1-based vertex numbers):
/// ```
///   *Vertices N
///   1 "Label one"
///   2 "Label two"      ; labels optional
///   *Arcs              ; directed edges "u v [weight]"
///   1 2
///   *Edges             ; undirected edges -> emitted in both directions
///   2 3 1.5
/// ```
/// `%` starts a comment line. Weights are accepted and ignored (the demo's
/// algorithms are unweighted). `*Arcslist` / `*Edgeslist` adjacency-list
/// sections are also handled. `content` is read in place; a `*Vertices`
/// count past `build.max_nodes` is refused where it is parsed. Every arc
/// section must follow `*Vertices`, and every endpoint must lie within its
/// count, so the graph has exactly the declared nodes. When any vertex is
/// labeled, vertex i gets the label given for it (or `"v<i>"`) and the
/// graph carries a `LabelMap`; two vertices with the same name are a
/// ParseError naming both.
Result<Graph> ReadPajek(std::string_view content,
                        const GraphBuildOptions& build = {});

/// Serializes `g` as `*Vertices` (+labels) and `*Arcs`. A label holding a
/// double quote or a line break cannot be written so that `ReadPajek`
/// gets it back; it is refused with `kInvalidArgument` naming the vertex,
/// before anything is written.
Status WritePajek(const Graph& g, std::ostream& out);

}  // namespace cyclerank

#endif  // CYCLERANK_GRAPH_IO_PAJEK_H_
