#include "graph/io_asd.h"

#include <ostream>
#include <string>

#include "common/strings.h"

namespace cyclerank {

Result<Graph> ReadAsd(std::string_view content,
                      const GraphBuildOptions& build) {
  GraphBuilder builder;
  int64_t n = -1, m = 0, read = 0;  // n is -1 until the header is read
  size_t line_no = 0;
  const auto parse = [&](std::string_view token) {
    return ParseLineInt64("asd", line_no, token);
  };
  while (!content.empty()) {
    ++line_no;
    const std::string_view line = StripAsciiWhitespace(ConsumeLine(&content));
    if (line.empty() || line[0] == '#') continue;
    const auto tokens = SplitWhitespace(line);
    if (n < 0) {
      if (tokens.size() != 2) {
        return Status::ParseError("asd line " + std::to_string(line_no) +
                                  ": header must be 'N M'");
      }
      CYCLERANK_ASSIGN_OR_RETURN(n, parse(tokens[0]));
      CYCLERANK_ASSIGN_OR_RETURN(m, parse(tokens[1]));
      if (n < 0 || m < 0) {
        return Status::ParseError("asd: negative count in header");
      }
      CYCLERANK_RETURN_NOT_OK(build.CheckNodes(n, "asd header"));
      builder.ReserveNodes(static_cast<NodeId>(n));
      continue;
    }
    if (read == m) {
      return Status::ParseError("asd: trailing data after " +
                                std::to_string(m) + " edges (line " +
                                std::to_string(line_no) + ")");
    }
    if (tokens.size() != 2) {
      return Status::ParseError("asd line " + std::to_string(line_no) +
                                ": expected 'u v'");
    }
    CYCLERANK_ASSIGN_OR_RETURN(int64_t u, parse(tokens[0]));
    CYCLERANK_ASSIGN_OR_RETURN(int64_t v, parse(tokens[1]));
    if (u < 0 || v < 0 || u >= n || v >= n) {
      return Status::ParseError("asd line " + std::to_string(line_no) +
                                ": endpoint out of range [0, " +
                                std::to_string(n) + ")");
    }
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    ++read;
  }
  if (n < 0) return Status::ParseError("asd: missing 'N M' header");
  if (read < m) {
    return Status::ParseError("asd: expected " + std::to_string(m) +
                              " edges, found " + std::to_string(read));
  }
  return builder.Build(build);
}

Status WriteAsd(const Graph& g, std::ostream& out) {
  out << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) out << u << ' ' << v << '\n';
  }
  if (!out) return Status::IOError("stream error while writing asd");
  return Status::OK();
}

}  // namespace cyclerank
