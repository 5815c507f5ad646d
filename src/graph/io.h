#ifndef CYCLERANK_GRAPH_IO_H_
#define CYCLERANK_GRAPH_IO_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"

namespace cyclerank {

/// The three upload formats supported by the demo (paper §IV-B), plus
/// METIS — implementing the paper's "we plan to add new [formats] in the
/// future" (§V). METIS is never auto-sniffed (its header is ambiguous with
/// ASD); select it explicitly or via the .metis extension.
enum class GraphFormat { kEdgeList, kPajek, kAsd, kMetis };

std::string_view GraphFormatToString(GraphFormat format);

/// Maps a file extension to a format:
/// `.csv/.edges/.edgelist/.txt` → edgelist, `.net/.pajek` → pajek,
/// `.asd` → ASD.
Result<GraphFormat> GraphFormatFromPath(std::string_view path);

/// Heuristically detects the format of serialized `content`:
/// a `*Vertices` header → pajek; an `N M` numeric header whose edge count
/// matches → ASD; otherwise edgelist.
GraphFormat SniffGraphFormat(std::string_view content);

/// Parses `content` in the given (or sniffed) format. Every reader walks
/// `content` in place, line by line, and refuses a graph of more than
/// `build.max_nodes` nodes before allocating for it.
Result<Graph> ReadGraphFromString(std::string_view content,
                                  GraphFormat format,
                                  const GraphBuildOptions& build = {});
Result<Graph> ReadGraphFromString(std::string_view content,
                                  const GraphBuildOptions& build = {});

/// Loads a graph file, inferring the format from the extension unless
/// `format` is given: the whole file is read, then `ReadGraphFromString`.
Result<Graph> ReadGraphFile(const std::string& path,
                            const GraphBuildOptions& build = {});
Result<Graph> ReadGraphFile(const std::string& path, GraphFormat format,
                            const GraphBuildOptions& build = {});

/// Serializes `g` to a string in `format`; `WriteGraphFile` writes that
/// string to `path` through `Env::Default()`.
Result<std::string> WriteGraphToString(const Graph& g, GraphFormat format);
Status WriteGraphFile(const Graph& g, const std::string& path,
                      GraphFormat format);

}  // namespace cyclerank

#endif  // CYCLERANK_GRAPH_IO_H_
