#include "graph/io_pajek.h"

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace cyclerank {
namespace {

enum class Section { kNone, kVertices, kArcs, kEdges, kArcsList, kEdgesList };

// Extracts an optional quoted label from a vertex line such as
//   3 "Fake news" 0.5 0.5
// Returns an empty view when no quoted label is present.
std::string_view ExtractQuotedLabel(std::string_view line) {
  const size_t open = line.find('"');
  if (open == std::string_view::npos) return {};
  const size_t close = line.find('"', open + 1);
  if (close == std::string_view::npos) return {};
  return line.substr(open + 1, close - open - 1);
}

Status BadLine(size_t line_no, const std::string& what) {
  return Status::ParseError("pajek line " + std::to_string(line_no) + ": " +
                            what);
}

}  // namespace

Result<Graph> ReadPajek(std::string_view content,
                        const GraphBuildOptions& build) {
  GraphBuilder builder;
  Section section = Section::kNone;
  int64_t declared_vertices = -1;
  int64_t max_endpoint = 0;  // largest vertex number an arc has named
  // Views into `content` by vertex, empty = unlabeled; sized to the
  // declared count by the first label.
  std::vector<std::string_view> labels;
  bool any_label = false;
  size_t line_no = 0;
  const auto parse = [&](std::string_view token) {
    return ParseLineInt64("pajek", line_no, token);
  };
  // Adds the edge between 1-based vertex numbers, both within
  // `*Vertices`: the graph never has more nodes than the file declares.
  const auto add_edge = [&](int64_t u, int64_t v) -> Status {
    if (u < 1 || v < 1 || u > declared_vertices || v > declared_vertices) {
      return BadLine(line_no, "endpoint out of range");
    }
    max_endpoint = std::max({max_endpoint, u, v});
    builder.AddEdge(static_cast<NodeId>(u - 1), static_cast<NodeId>(v - 1));
    if (section == Section::kEdges || section == Section::kEdgesList) {
      builder.AddEdge(static_cast<NodeId>(v - 1), static_cast<NodeId>(u - 1));
    }
    return Status::OK();
  };

  while (!content.empty()) {
    ++line_no;
    const std::string_view data = StripAsciiWhitespace(ConsumeLine(&content));
    if (data.empty() || data[0] == '%') continue;

    if (data[0] == '*') {
      const std::string keyword = AsciiToLower(data.substr(1));
      const auto tokens = SplitWhitespace(keyword);
      if (tokens.empty()) return BadLine(line_no, "empty section header");
      const std::string_view head = tokens[0];
      if (head == "vertices") {
        if (tokens.size() < 2) {
          return BadLine(line_no, "*Vertices requires a count");
        }
        CYCLERANK_ASSIGN_OR_RETURN(declared_vertices, parse(tokens[1]));
        if (declared_vertices < 0) {
          return BadLine(line_no, "negative vertex count");
        }
        if (declared_vertices < max_endpoint) {
          return BadLine(line_no, "*Vertices " +
                                      std::to_string(declared_vertices) +
                                      " is below vertex " +
                                      std::to_string(max_endpoint) +
                                      " of an earlier arc");
        }
        CYCLERANK_RETURN_NOT_OK(
            build.CheckNodes(declared_vertices, "pajek *Vertices"));
        labels.clear();
        section = Section::kVertices;
        continue;
      }
      if (head == "arcs") {
        section = Section::kArcs;
      } else if (head == "edges") {
        section = Section::kEdges;
      } else if (head == "arcslist") {
        section = Section::kArcsList;
      } else if (head == "edgeslist") {
        section = Section::kEdgesList;
      } else {
        return BadLine(line_no, "unknown section '*" + std::string(head) + "'");
      }
      if (declared_vertices < 0) {
        return BadLine(line_no, "'*" + std::string(head) +
                                    "' section before *Vertices");
      }
      continue;
    }

    const auto tokens = SplitWhitespace(data);
    switch (section) {
      case Section::kNone:
        return BadLine(line_no, "data before any section header");
      case Section::kVertices: {
        CYCLERANK_ASSIGN_OR_RETURN(int64_t idx, parse(tokens[0]));
        if (idx < 1 || idx > declared_vertices) {
          return BadLine(line_no, "vertex id out of range");
        }
        const std::string_view label = ExtractQuotedLabel(data);
        if (!label.empty()) {
          labels.resize(static_cast<size_t>(declared_vertices));
          labels[static_cast<size_t>(idx - 1)] = label;
          any_label = true;
        }
        break;
      }
      case Section::kArcs:
      case Section::kEdges: {
        if (tokens.size() < 2) return BadLine(line_no, "expected 'u v'");
        CYCLERANK_ASSIGN_OR_RETURN(int64_t u, parse(tokens[0]));
        CYCLERANK_ASSIGN_OR_RETURN(int64_t v, parse(tokens[1]));
        CYCLERANK_RETURN_NOT_OK(add_edge(u, v));
        break;
      }
      case Section::kArcsList:
      case Section::kEdgesList: {
        if (tokens.size() < 2) return BadLine(line_no, "expected 'u v...'");
        CYCLERANK_ASSIGN_OR_RETURN(int64_t u, parse(tokens[0]));
        for (size_t i = 1; i < tokens.size(); ++i) {
          CYCLERANK_ASSIGN_OR_RETURN(int64_t v, parse(tokens[i]));
          CYCLERANK_RETURN_NOT_OK(add_edge(u, v));
        }
        break;
      }
    }
  }
  if (declared_vertices < 0) {
    return Status::ParseError("pajek: missing *Vertices section");
  }

  builder.ReserveNodes(static_cast<NodeId>(declared_vertices));
  if (any_label) {
    // Vertex i-1 must get id i-1, and AddNode numbers labels densely in
    // first-registration order, so register them in vertex order (a
    // synthetic name for an unlabeled vertex) before the single Build. A
    // name given twice would shift every later vertex by one id.
    labels.resize(static_cast<size_t>(declared_vertices));
    for (size_t i = 0; i < labels.size(); ++i) {
      const std::string name = labels[i].empty() ? "v" + std::to_string(i + 1)
                                                 : std::string(labels[i]);
      const NodeId first = builder.AddNode(name);
      if (first == i) continue;
      std::string labeled = std::to_string(first + 1);
      std::string other = std::to_string(i + 1);
      if (labels[first].empty()) std::swap(labeled, other);
      return Status::ParseError(
          labels[i].empty() || labels[first].empty()
              ? "pajek: vertex " + labeled + "'s label '" + name +
                    "' is the synthetic name of unlabeled vertex " + other
              : "pajek: vertices " + labeled + " and " + other +
                    " share the label '" + name + "'");
    }
  }
  return builder.Build(build);
}

Status WritePajek(const Graph& g, std::ostream& out) {
  // A label is written between double quotes, unescaped, and the reader
  // ends it at the next quote and the line at a line break: such a label
  // could not come back intact, so it is refused before anything is
  // written.
  if (g.labels() != nullptr) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const std::string name = g.NodeName(u);
      if (name.find_first_of("\"\r\n") != std::string::npos) {
        return Status::InvalidArgument(
            "pajek: vertex " + std::to_string(u + 1) + "'s label '" + name +
            "' contains a double quote or a line break, which a Pajek "
            "label cannot hold");
      }
    }
  }
  out << "*Vertices " << g.num_nodes() << '\n';
  if (g.labels() != nullptr) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      out << (u + 1) << " \"" << g.NodeName(u) << "\"\n";
    }
  }
  out << "*Arcs\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      out << (u + 1) << ' ' << (v + 1) << '\n';
    }
  }
  if (!out) return Status::IOError("stream error while writing pajek");
  return Status::OK();
}

}  // namespace cyclerank
