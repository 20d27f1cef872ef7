#include "common/string_util.h"

#include <gtest/gtest.h>

#include <clocale>
#include <string>

namespace humo {
namespace {

TEST(StringUtilTest, SplitAnyDropsEmpties) {
  const auto parts = SplitAny("  foo  bar\tbaz ", " \t");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
}

TEST(StringUtilTest, SplitAnyEmptyInput) {
  EXPECT_TRUE(SplitAny("", " ").empty());
  EXPECT_TRUE(SplitAny("   ", " ").empty());
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, NormalizeForMatchingLowercasesAndStripsPunctuation) {
  EXPECT_EQ(NormalizeForMatching("Entity-Resolution: A Survey!"),
            "entity resolution a survey");
}

TEST(StringUtilTest, NormalizeForMatchingCollapsesWhitespace) {
  EXPECT_EQ(NormalizeForMatching("  a   b \t c  "), "a b c");
}

TEST(StringUtilTest, NormalizeForMatchingKeepsDigits) {
  EXPECT_EQ(NormalizeForMatching("Model X-200 (v2)"), "model x 200 v2");
}

TEST(StringUtilTest, NormalizeEmpty) {
  EXPECT_EQ(NormalizeForMatching(""), "");
  EXPECT_EQ(NormalizeForMatching("!!!"), "");
}

/// The ASCII rule spelled out: digits and lower-case letters kept, upper-case
/// letters folded, every other byte (bytes >= 0x80 too) a separator (0).
char AsciiRule(int b) {
  if ((b >= '0' && b <= '9') || (b >= 'a' && b <= 'z')) {
    return static_cast<char>(b);
  }
  if (b >= 'A' && b <= 'Z') return static_cast<char>(b - 'A' + 'a');
  return 0;
}

TEST(StringUtilTest, NormalizeForMatchingIsFixedAsciiInEveryLocale) {
  const std::string saved = std::setlocale(LC_ALL, nullptr);
  // Whichever of these the host has; a Latin-1 locale would make
  // std::isalnum keep bytes >= 0x80.
  size_t checked = 0;
  for (const char* locale : {"C", "C.UTF-8", "C.utf8", "en_US.UTF-8",
                             "en_US.ISO-8859-1", "de_DE.ISO-8859-1",
                             "fr_FR.ISO-8859-15"}) {
    if (std::setlocale(LC_ALL, locale) == nullptr) continue;
    ++checked;
    for (int b = 0; b < 256; ++b) {
      const char want = AsciiRule(b);
      EXPECT_EQ(kMatchFold[b], want) << "byte " << b;
      const std::string value = {'x', static_cast<char>(b), 'y'};
      const std::string expected =
          want != 0 ? std::string{'x', want, 'y'} : std::string("x y");
      EXPECT_EQ(NormalizeForMatching(value), expected)
          << "byte " << b << " in locale " << locale;
    }
  }
  std::setlocale(LC_ALL, saved.c_str());
  EXPECT_GE(checked, 1u);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

}  // namespace
}  // namespace humo
