#include "text/tokenizer.h"

#include <gtest/gtest.h>

namespace humo::text {
namespace {

TEST(TokenizerTest, WordTokens) {
  const auto t = WordTokens("the quick  brown\tfox");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "the");
  EXPECT_EQ(t[3], "fox");
}

TEST(TokenizerTest, WordTokensEmpty) {
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens("   ").empty());
}

TEST(TokenizerTest, TokenSetDeduplicates) {
  const auto s = TokenSet({"a", "b", "a", "c", "b"});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.count("a"));
}

}  // namespace
}  // namespace humo::text
