#include "graph/io.h"

#include <sstream>

#include "common/env.h"
#include "common/strings.h"
#include "graph/io_asd.h"
#include "graph/io_edgelist.h"
#include "graph/io_metis.h"
#include "graph/io_pajek.h"

namespace cyclerank {

std::string_view GraphFormatToString(GraphFormat format) {
  switch (format) {
    case GraphFormat::kEdgeList:
      return "edgelist";
    case GraphFormat::kPajek:
      return "pajek";
    case GraphFormat::kAsd:
      return "asd";
    case GraphFormat::kMetis:
      return "metis";
  }
  return "?";
}

Result<GraphFormat> GraphFormatFromPath(std::string_view path) {
  const size_t dot = path.rfind('.');
  if (dot == std::string_view::npos) {
    return Status::InvalidArgument("no file extension in '" +
                                   std::string(path) + "'");
  }
  const std::string ext = AsciiToLower(path.substr(dot + 1));
  if (ext == "csv" || ext == "edges" || ext == "edgelist" || ext == "txt") {
    return GraphFormat::kEdgeList;
  }
  if (ext == "net" || ext == "pajek") return GraphFormat::kPajek;
  if (ext == "asd") return GraphFormat::kAsd;
  if (ext == "metis") return GraphFormat::kMetis;
  return Status::InvalidArgument("unknown graph extension '." + ext + "'");
}

GraphFormat SniffGraphFormat(std::string_view content) {
  const auto is_comment_or_blank = [](std::string_view line) {
    return line.empty() || line[0] == '#' || line[0] == '%';
  };
  // First non-blank, non-comment line decides.
  while (!content.empty()) {
    const std::string_view line = StripAsciiWhitespace(ConsumeLine(&content));
    if (is_comment_or_blank(line)) continue;
    if (line[0] == '*') return GraphFormat::kPajek;
    const auto tokens = SplitWhitespace(line);
    if (tokens.size() == 2 && ParseInt64(tokens[0]).ok() &&
        ParseInt64(tokens[1]).ok() &&
        line.find(',') == std::string_view::npos) {
      // Could be ASD ("N M") or a whitespace edgelist. ASD's header promises
      // exactly M data lines; count them, stopping once there are more.
      const int64_t m = *ParseInt64(tokens[1]);
      int64_t data_lines = 0;
      while (!content.empty() && data_lines <= m) {
        if (!is_comment_or_blank(StripAsciiWhitespace(ConsumeLine(&content)))) {
          ++data_lines;
        }
      }
      if (data_lines == m) return GraphFormat::kAsd;
    }
    return GraphFormat::kEdgeList;
  }
  return GraphFormat::kEdgeList;
}

Result<Graph> ReadGraphFromString(std::string_view content, GraphFormat format,
                                  const GraphBuildOptions& build) {
  switch (format) {
    case GraphFormat::kEdgeList: {
      EdgeListReadOptions options;
      options.build = build;
      return ReadEdgeList(content, options);
    }
    case GraphFormat::kPajek:
      return ReadPajek(content, build);
    case GraphFormat::kAsd:
      return ReadAsd(content, build);
    case GraphFormat::kMetis:
      return ReadMetis(content, build);
  }
  return Status::Internal("unreachable graph format");
}

Result<Graph> ReadGraphFromString(std::string_view content,
                                  const GraphBuildOptions& build) {
  return ReadGraphFromString(content, SniffGraphFormat(content), build);
}

Result<Graph> ReadGraphFile(const std::string& path,
                            const GraphBuildOptions& build) {
  CYCLERANK_ASSIGN_OR_RETURN(GraphFormat format, GraphFormatFromPath(path));
  return ReadGraphFile(path, format, build);
}

Result<Graph> ReadGraphFile(const std::string& path, GraphFormat format,
                            const GraphBuildOptions& build) {
  CYCLERANK_ASSIGN_OR_RETURN(std::string content,
                             Env::Default()->ReadFile(path));
  return ReadGraphFromString(content, format, build);
}

Result<std::string> WriteGraphToString(const Graph& g, GraphFormat format) {
  std::ostringstream out;
  const Status written = [&] {
    switch (format) {
      case GraphFormat::kEdgeList:
        return WriteEdgeList(g, out);
      case GraphFormat::kPajek:
        return WritePajek(g, out);
      case GraphFormat::kAsd:
        return WriteAsd(g, out);
      case GraphFormat::kMetis:
        return WriteMetis(g, out);
    }
    return Status::Internal("unreachable graph format");
  }();
  CYCLERANK_RETURN_NOT_OK(written);
  return out.str();
}

Status WriteGraphFile(const Graph& g, const std::string& path,
                      GraphFormat format) {
  CYCLERANK_ASSIGN_OR_RETURN(std::string content,
                             WriteGraphToString(g, format));
  return Env::Default()->WriteFile(path, content);
}

}  // namespace cyclerank
