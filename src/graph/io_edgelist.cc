#include "graph/io_edgelist.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <ostream>
#include <string>

#include "common/strings.h"

namespace cyclerank {
namespace {

char DetectDelimiter(std::string_view line) {
  if (line.find(',') != std::string_view::npos) return ',';
  if (line.find(';') != std::string_view::npos) return ';';
  if (line.find('\t') != std::string_view::npos) return '\t';
  return ' ';
}

/// Counts the non-empty fields of a data line, keeping the first two in
/// `*src` and `*dst`. A `' '` delimiter splits on runs of whitespace; any
/// other splits on that character and strips each field.
size_t SplitFields(std::string_view line, char delimiter,
                   std::string_view* src, std::string_view* dst) {
  size_t count = 0;
  const auto keep = [&](std::string_view field) {
    if (field.empty()) return;
    if (count == 0) *src = field;
    if (count == 1) *dst = field;
    ++count;
  };
  size_t i = 0;
  if (delimiter == ' ') {
    while (i < line.size()) {
      while (i < line.size() && IsAsciiSpace(line[i])) ++i;
      const size_t start = i;
      while (i < line.size() && !IsAsciiSpace(line[i])) ++i;
      keep(line.substr(start, i - start));
    }
    return count;
  }
  while (true) {
    const size_t end = line.find(delimiter, i);
    keep(StripAsciiWhitespace(line.substr(i, end - i)));
    if (end == std::string_view::npos) return count;
    i = end + 1;
  }
}

/// Calls `on_edge(src, dst)` for the two fields of every data line, in
/// file order, until it returns false. Blank lines and lines starting with
/// `#` or `%` are skipped; any other line must have exactly two fields.
template <typename OnEdge>
Status ForEachEdge(std::string_view content, char delimiter,
                   OnEdge&& on_edge) {
  size_t line_no = 0;
  while (!content.empty()) {
    ++line_no;
    const std::string_view line = StripAsciiWhitespace(ConsumeLine(&content));
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    if (delimiter == '\0') delimiter = DetectDelimiter(line);
    std::string_view src, dst;
    const size_t fields = SplitFields(line, delimiter, &src, &dst);
    if (fields != 2) {
      return Status::ParseError("edgelist line " + std::to_string(line_no) +
                                ": expected 2 fields, got " +
                                std::to_string(fields));
    }
    if (!on_edge(src, dst)) break;
  }
  return Status::OK();
}

/// True when the whole token is a decimal `int64_t`.
bool ParseId(std::string_view token, int64_t* value) {
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, *value);
  return ec == std::errc() && end == last;
}

}  // namespace

Result<Graph> ReadEdgeList(std::string_view content,
                           const EdgeListReadOptions& options) {
  // One edge per line at most: reserve from the line count.
  const auto newlines = std::count(content.begin(), content.end(), '\n');
  const size_t max_edges = static_cast<size_t>(newlines) + 1;
  // Large edgelists are overwhelmingly numeric, so the first pass reads ids
  // straight into the builder. The first token that is not an integer makes
  // the whole file labeled: a second pass reads it again from line 1 as
  // labels, so every token keeps its spelling ("007" and "7" are different
  // labels) and ids follow first appearance.
  if (!options.force_labeled) {
    GraphBuilder builder;
    builder.ReserveEdges(max_edges);
    bool labeled = false;
    // Out-of-range ids are only an error for an all-numeric file — a
    // labeled file may use "-1" as a label — so the first one is reported
    // once the pass ends numeric. kInvalidNode is the reserved sentinel,
    // so the largest usable id is one below it; anything bigger would wrap
    // in the NodeId cast and build a wrong graph.
    Status id_error;
    constexpr int64_t kMaxId = static_cast<int64_t>(kInvalidNode) - 1;
    CYCLERANK_RETURN_NOT_OK(ForEachEdge(
        content, options.delimiter,
        [&](std::string_view src, std::string_view dst) {
          int64_t s = 0, d = 0;
          if (!ParseId(src, &s) || !ParseId(dst, &d)) {
            labeled = true;
            return false;
          }
          if (s >= 0 && d >= 0 && s <= kMaxId && d <= kMaxId) {
            builder.AddEdge(static_cast<NodeId>(s), static_cast<NodeId>(d));
          } else if (id_error.ok()) {
            id_error = s < 0 || d < 0
                           ? Status::ParseError("edgelist: negative node id")
                           : Status::ParseError(
                                 "edgelist: node id " +
                                 std::to_string(s > kMaxId ? s : d) +
                                 " exceeds the 32-bit id range");
          }
          return true;
        }));
    if (!labeled) {
      CYCLERANK_RETURN_NOT_OK(id_error);
      return builder.Build(options.build);
    }
  }
  GraphBuilder builder;
  builder.ReserveEdges(max_edges);
  CYCLERANK_RETURN_NOT_OK(ForEachEdge(
      content, options.delimiter,
      [&](std::string_view src, std::string_view dst) {
        builder.AddEdge(src, dst);
        return true;
      }));
  return builder.Build(options.build);
}

Status WriteEdgeList(const Graph& g, std::ostream& out, char delimiter) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      out << g.NodeName(u) << delimiter << g.NodeName(v) << '\n';
    }
  }
  if (!out) return Status::IOError("stream error while writing edgelist");
  return Status::OK();
}

}  // namespace cyclerank
