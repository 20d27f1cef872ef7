#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "text/jaro.h"
#include "text/token_similarity.h"
#include "text/tokenizer.h"

namespace humo::text {
namespace {

/// Fuzz/edge-case coverage for the text metrics: hostile inputs — empty
/// strings, single characters, embedded NULs, long repeats, invalid UTF-8 —
/// must never crash (exercised under ASan in CI) and must keep the metric
/// properties (symmetry, identity, unit range) that the randomized property
/// suite checks on well-formed words.

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t len = rng->NextBelow(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Full byte alphabet: NULs, DEL, high bytes (invalid UTF-8) included.
    s.push_back(static_cast<char>(rng->NextBelow(256)));
  }
  return s;
}

const std::vector<std::string>& HostileStrings() {
  static const std::vector<std::string>* strings = [] {
    auto* v = new std::vector<std::string>();
    v->push_back("");
    v->push_back("a");
    v->push_back(std::string(1, '\0'));
    v->push_back(std::string("a\0b", 3));          // embedded NUL
    v->push_back(std::string("\0\0\0", 3));        // all NULs
    v->push_back(std::string(2000, 'a'));          // long repeat
    v->push_back(std::string(1500, '\xff'));       // invalid UTF-8 repeat
    v->push_back("\xc3\x28");                      // truncated 2-byte UTF-8
    v->push_back("\xe2\x82");                      // truncated 3-byte UTF-8
    v->push_back("\xf0\x9f\x92\xa9");              // 4-byte UTF-8 (bytes)
    v->push_back("\xed\xa0\x80");                  // UTF-16 surrogate bytes
    v->push_back(std::string(997, 'x') + "y");     // repeat + tail
    v->push_back(" \t\r\n  \f\v ");                // whitespace soup
    return v;
  }();
  return *strings;
}

TEST(TextFuzzTest, JaroSurvivesHostilePairs) {
  const auto& inputs = HostileStrings();
  for (const std::string& a : inputs) {
    for (const std::string& b : inputs) {
      const double j = JaroSimilarity(a, b);
      EXPECT_GE(j, 0.0);
      EXPECT_LE(j, 1.0);
      EXPECT_EQ(j, JaroSimilarity(b, a));
      const double jw = JaroWinklerSimilarity(a, b);
      EXPECT_GE(jw + 1e-12, j);
      EXPECT_LE(jw, 1.0);
    }
    EXPECT_EQ(JaroSimilarity(a, a), 1.0);
  }
}

TEST(TextFuzzTest, TokenizerSurvivesHostileInputs) {
  for (const std::string& s : HostileStrings()) {
    const std::vector<std::string> words = WordTokens(s);
    size_t total = 0;
    for (const std::string& w : words) {
      EXPECT_FALSE(w.empty());
      total += w.size();
    }
    EXPECT_LE(total, s.size());
    const auto set = TokenSet(words);
    EXPECT_LE(set.size(), words.size());
  }
}

TEST(TextFuzzTest, RandomByteStringsKeepMetricProperties) {
  Rng rng(4242);
  for (int rep = 0; rep < 250; ++rep) {
    const std::string a = RandomBytes(&rng, 40);
    const std::string b = RandomBytes(&rng, 40);
    RandomBytes(&rng, 40);  // a third string, kept so the stream is unchanged
    const double j = JaroSimilarity(a, b);
    EXPECT_GE(j, 0.0);
    EXPECT_LE(j, 1.0);
    EXPECT_EQ(j, JaroSimilarity(b, a)) << "rep " << rep;
  }
}

TEST(TextFuzzTest, LongRepeatsAreExactNotApproximate) {
  const std::string a(2000, 'a');
  std::string c = a;
  c[1000] = 'b';
  EXPECT_GT(JaroSimilarity(a, c), 0.99);
}

}  // namespace
}  // namespace humo::text
