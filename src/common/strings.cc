#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace cyclerank {

std::vector<std::string_view> SplitWhitespace(std::string_view s) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsAsciiSpace(s[i])) ++i;
    size_t start = i;
    while (i < s.size() && !IsAsciiSpace(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return Status::ParseError("empty integer token");
  int64_t value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) {
    return Status::ParseError("invalid integer: '" + std::string(s) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view s) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return Status::ParseError("empty floating-point token");
  double value = 0.0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) {
    return Status::ParseError("invalid double: '" + std::string(s) + "'");
  }
  return value;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

}  // namespace cyclerank
