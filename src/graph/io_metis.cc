#include "graph/io_metis.h"

#include <ostream>
#include <string>

#include "common/strings.h"

namespace cyclerank {

Result<Graph> ReadMetis(std::string_view content,
                        const GraphBuildOptions& build) {
  GraphBuilder builder;
  int64_t n = -1, m = 0;  // n is -1 until the header is read
  int64_t row = 0;         // adjacency rows read so far
  uint64_t listed = 0;
  size_t line_no = 0;
  const auto parse = [&](std::string_view token) {
    return ParseLineInt64("metis", line_no, token);
  };
  while (!content.empty()) {
    ++line_no;
    const std::string_view line = StripAsciiWhitespace(ConsumeLine(&content));
    if (!line.empty() && line[0] == '%') continue;
    if (n < 0) {
      if (line.empty()) continue;
      const auto header = SplitWhitespace(line);
      if (header.size() < 2) {
        return Status::ParseError("metis: header must be 'N M'");
      }
      if (header.size() > 2) {
        return Status::Unimplemented(
            "metis: weighted graphs (fmt/ncon header fields) are not "
            "supported");
      }
      CYCLERANK_ASSIGN_OR_RETURN(n, parse(header[0]));
      CYCLERANK_ASSIGN_OR_RETURN(m, parse(header[1]));
      if (n < 0 || m < 0) {
        return Status::ParseError("metis: negative count in header");
      }
      CYCLERANK_RETURN_NOT_OK(build.CheckNodes(n, "metis header"));
      builder.ReserveNodes(static_cast<NodeId>(n));
      continue;
    }
    if (row == n) {  // trailing blanks are fine
      if (line.empty()) continue;
      return Status::ParseError("metis: trailing data at line " +
                                std::to_string(line_no));
    }
    for (std::string_view token : SplitWhitespace(line)) {
      CYCLERANK_ASSIGN_OR_RETURN(int64_t v, parse(token));
      if (v < 1 || v > n) {
        return Status::ParseError("metis line " + std::to_string(line_no) +
                                  ": neighbour " + std::to_string(v) +
                                  " out of range [1, " + std::to_string(n) +
                                  "]");
      }
      builder.AddEdge(static_cast<NodeId>(row), static_cast<NodeId>(v - 1));
      ++listed;
    }
    ++row;
  }
  if (n < 0) return Status::ParseError("metis: missing header");
  if (row < n) {
    return Status::ParseError("metis: expected " + std::to_string(n) +
                              " adjacency lines, found " +
                              std::to_string(row));
  }
  // Each undirected edge is listed from both endpoints (self-loops once).
  if (listed != 2 * static_cast<uint64_t>(m) &&
      listed != static_cast<uint64_t>(m)) {
    // Accept both the strict METIS convention (2m listings) and the lax
    // one-directional variant some tools emit, but reject anything else.
    return Status::ParseError(
        "metis: header declares " + std::to_string(m) + " edges but " +
        std::to_string(listed) + " neighbour entries were listed");
  }
  return builder.Build(build);
}

Status WriteMetis(const Graph& g, std::ostream& out) {
  // Verify symmetry: METIS cannot express one-directional edges.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      if (!g.HasEdge(v, u)) {
        return Status::InvalidArgument(
            "metis: graph is not symmetric (edge " + std::to_string(u) +
            "->" + std::to_string(v) + " has no reverse); Symmetrize() it "
            "first");
      }
    }
  }
  out << g.num_nodes() << ' ' << g.num_edges() / 2 << '\n';
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    bool first = true;
    for (NodeId v : g.OutNeighbors(u)) {
      if (!first) out << ' ';
      out << (v + 1);
      first = false;
    }
    out << '\n';
  }
  if (!out) return Status::IOError("stream error while writing metis");
  return Status::OK();
}

}  // namespace cyclerank
