#ifndef CYCLERANK_COMMON_STRINGS_H_
#define CYCLERANK_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace cyclerank {

/// Text helpers shared by the graph readers, the parameter parser and the
/// table renderers. All functions are pure and allocation-conscious
/// (`string_view` in, owning strings out only where required).

/// True for the six ASCII whitespace characters: space, \t, \n, \r, \f
/// and \v.
inline bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

/// Removes ASCII whitespace from both ends. Inline, like `ConsumeLine`:
/// the text readers call both for every line.
inline std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && IsAsciiSpace(s[b])) ++b;
  size_t e = s.size();
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Removes the first line from `*text` and returns it without its '\n'
/// (the last line need not end in one): `while (!text.empty())` walks the
/// lines `std::getline` would yield, without copying them.
inline std::string_view ConsumeLine(std::string_view* text) {
  const size_t end = text->find('\n');
  const std::string_view line = text->substr(0, end);
  text->remove_prefix(end == std::string_view::npos ? text->size() : end + 1);
  return line;
}

/// Splits `s` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string_view> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// ASCII lower-casing (locale independent).
std::string AsciiToLower(std::string_view s);

/// True iff `s` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strict integer / floating-point parsers: the whole trimmed token must be
/// consumed, otherwise a ParseError is returned.
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// Formats `value` with `precision` significant digits (for tables).
std::string FormatDouble(double value, int precision = 6);

}  // namespace cyclerank

#endif  // CYCLERANK_COMMON_STRINGS_H_
