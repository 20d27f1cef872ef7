#include "text/token_dictionary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

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

TEST(TokenDictionaryTest, InternBatchMatchesIntern) {
  // Batches of 1, 31, 32, 33 and 1,000 tokens (around the kBatch = 32
  // probe window). They repeat tokens inside one batch and across batches,
  // hold the empty token and prefix chains, and the fresh tokens of the
  // 33- and 1,000-token batches cross slot-table doublings.
  std::vector<std::vector<std::string>> batches;
  batches.push_back({"alpha"});
  std::vector<std::string> b31;
  for (int i = 0; i < 31; ++i) {
    b31.push_back(i % 3 == 0 ? std::string("") : "p" + std::to_string(i % 5));
  }
  batches.push_back(b31);
  std::vector<std::string> b32;
  for (int i = 0; i < 32; ++i) {
    b32.push_back(std::string("abcdefghijklmnop").substr(0, i % 17));
  }
  batches.push_back(b32);
  std::vector<std::string> b33;
  for (int i = 0; i < 33; ++i) b33.push_back("fresh" + std::to_string(i));
  b33[20] = b33[3];
  batches.push_back(b33);
  batches.push_back({"alpha"});
  std::vector<std::string> b1000;
  for (int i = 0; i < 1000; ++i) {
    b1000.push_back(i % 10 == 9 ? b1000[i / 2] : "w" + std::to_string(i));
  }
  b1000[500] = "";
  b1000[501] = "alpha";
  batches.push_back(b1000);

  // Intern shares InternBatch's probe and insert code, so both are also
  // checked against an independent first-seen reference: a string map for
  // the ids and a per-id count of the batches (documents) holding a token.
  std::unordered_map<std::string, uint32_t> reference;
  std::vector<std::string> reference_tokens;
  std::vector<uint32_t> reference_doc_freq;
  TokenDictionary batched, single;
  for (const std::vector<std::string>& batch : batches) {
    const std::vector<std::string_view> views(batch.begin(), batch.end());
    std::vector<uint32_t> ids(batch.size());
    batched.InternBatch(views.data(), views.size(), ids.data());
    std::vector<uint32_t> expected(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto [it, fresh] = reference.emplace(
          batch[i], static_cast<uint32_t>(reference_tokens.size()));
      if (fresh) reference_tokens.push_back(batch[i]);
      expected[i] = it->second;
      ASSERT_EQ(ids[i], expected[i])
          << "batch of " << batch.size() << ", token " << i;
      ASSERT_EQ(single.Intern(batch[i]), expected[i])
          << "batch of " << batch.size() << ", token " << i;
    }
    // Each batch is one document of both dictionaries.
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    batched.CountDocument(ids.data(), ids.size());
    single.CountDocument(ids.data(), ids.size());
    reference_doc_freq.resize(reference_tokens.size(), 0);
    for (const uint32_t id : ids) ++reference_doc_freq[id];
  }
  ASSERT_EQ(batched.size(), reference_tokens.size());
  ASSERT_EQ(single.size(), reference_tokens.size());
  EXPECT_GT(batched.size(), 512u);
  for (uint32_t id = 0; id < reference_tokens.size(); ++id) {
    const std::string& token = reference_tokens[id];
    EXPECT_EQ(batched.TokenOf(id), token) << "id " << id;
    EXPECT_EQ(single.TokenOf(id), token) << "id " << id;
    EXPECT_EQ(batched.IdOf(token), id) << "id " << id;
    EXPECT_EQ(single.IdOf(token), id) << "id " << id;
  }
  EXPECT_EQ(batched.IdOf("w1000"), TokenDictionary::kNoToken);
  EXPECT_EQ(batched.doc_freq(), reference_doc_freq);
  EXPECT_EQ(single.doc_freq(), reference_doc_freq);
  EXPECT_EQ(batched.num_documents(), batches.size());
  EXPECT_EQ(single.num_documents(), batches.size());
}

}  // namespace
}  // namespace humo::text
