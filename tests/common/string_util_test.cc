#include "common/string_util.h"

#include <gtest/gtest.h>

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

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

}  // namespace
}  // namespace humo
