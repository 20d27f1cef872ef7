#include "text/token_dictionary.h"

#include <gtest/gtest.h>

#include <string>

namespace humo::text {
namespace {

TEST(TokenDictionaryTest, EmptyDictionaryHasNoTokens) {
  const TokenDictionary dict;
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_EQ(dict.IdOf("alpha"), TokenDictionary::kNoToken);
  EXPECT_EQ(dict.IdOf(""), TokenDictionary::kNoToken);
}

TEST(TokenDictionaryTest, RoundTripsAcrossRehashes) {
  // 5000 distinct tokens grow the slot table from 16 to 16384 slots (ten
  // rehashes); every id must still find its token and vice versa.
  constexpr uint32_t kTokens = 5000;
  TokenDictionary dict;
  for (uint32_t i = 0; i < kTokens; ++i) {
    ASSERT_EQ(dict.Intern("tok" + std::to_string(i)), i);
  }
  ASSERT_EQ(dict.size(), kTokens);
  for (uint32_t i = 0; i < kTokens; ++i) {
    const std::string token = "tok" + std::to_string(i);
    EXPECT_EQ(dict.IdOf(token), i);
    EXPECT_EQ(dict.TokenOf(i), token);
  }
  EXPECT_EQ(dict.IdOf("tok5000"), TokenDictionary::kNoToken);
}

TEST(TokenDictionaryTest, PrefixesAndEmptyTokenAreDistinct) {
  TokenDictionary dict;
  const uint32_t a = dict.Intern("a");
  const uint32_t ab = dict.Intern("ab");
  const uint32_t abc = dict.Intern("abc");
  const uint32_t empty = dict.Intern("");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(ab, 1u);
  EXPECT_EQ(abc, 2u);
  EXPECT_EQ(empty, 3u);
  EXPECT_EQ(dict.TokenOf(a), "a");
  EXPECT_EQ(dict.TokenOf(ab), "ab");
  EXPECT_EQ(dict.TokenOf(abc), "abc");
  EXPECT_EQ(dict.TokenOf(empty), "");
  EXPECT_EQ(dict.IdOf(""), empty);
  EXPECT_EQ(dict.IdOf("abcd"), TokenDictionary::kNoToken);
}

TEST(TokenDictionaryTest, ReinterningDoesNotGrow) {
  TokenDictionary dict;
  const uint32_t x = dict.Intern("entity");
  const uint32_t y = dict.Intern("resolution");
  EXPECT_EQ(dict.Intern("entity"), x);
  EXPECT_EQ(dict.Intern(std::string("resolution")), y);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.doc_freq().size(), 2u);
}

}  // namespace
}  // namespace humo::text
