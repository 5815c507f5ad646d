#include "common/strings.h"

#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace cyclerank {
namespace {

TEST(StringsTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace("x"), "x");
}

TEST(StringsTest, ConsumeLineWalksTheLinesGetlineYields) {
  const auto lines = [](std::string_view text) {
    std::vector<std::string_view> out;
    while (!text.empty()) out.push_back(ConsumeLine(&text));
    return out;
  };
  using Lines = std::vector<std::string_view>;
  EXPECT_EQ(lines(""), Lines{});
  EXPECT_EQ(lines("\n"), Lines{""});
  EXPECT_EQ(lines("a\n"), Lines{"a"});
  EXPECT_EQ(lines("a"), Lines{"a"});  // no trailing newline
  EXPECT_EQ(lines("a\n\nb\n"), (Lines{"a", "", "b"}));
  EXPECT_EQ(lines("a\r\nb"), (Lines{"a\r", "b"}));  // '\r' is kept
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  const auto parts = SplitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"solo"}, ","), "solo");
}

TEST(StringsTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("PaJeK *Vertices"), "pajek *vertices");
  EXPECT_EQ(AsciiToLower("már"), "már");  // non-ASCII bytes untouched
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("wikilink-en", "wikilink"));
  EXPECT_FALSE(StartsWith("en", "wikilink"));
  EXPECT_TRUE(EndsWith("graph.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "graph.csv"));
}

TEST(StringsTest, ParseInt64Valid) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("  -7 ").value(), -7);
  EXPECT_EQ(ParseInt64("0").value(), 0);
}

TEST(StringsTest, ParseInt64Invalid) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("4.5").ok());
  EXPECT_FALSE(ParseInt64("x12").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("1 2").ok());
}

TEST(StringsTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.85").value(), 0.85);
  EXPECT_DOUBLE_EQ(ParseDouble(" 1e-9 ").value(), 1e-9);
  EXPECT_DOUBLE_EQ(ParseDouble("-3").value(), -3.0);
}

TEST(StringsTest, ParseDoubleInvalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(1234.5678, 3), "1.23e+03");
}

}  // namespace
}  // namespace cyclerank
