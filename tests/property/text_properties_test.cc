#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "text/jaro.h"
#include "text/token_similarity.h"

namespace humo::text {
namespace {

std::string RandomWord(humo::Rng* rng, size_t max_len = 12) {
  const size_t len = 1 + rng->NextBelow(max_len);
  std::string s;
  for (size_t i = 0; i < len; ++i)
    s.push_back(static_cast<char>('a' + rng->NextBelow(6)));  // small alphabet
  return s;
}

/// Metric and normalization properties checked over random string pairs.
class TextPropertyTest : public ::testing::Test {
 protected:
  humo::Rng rng_{12345};
};

TEST_F(TextPropertyTest, SimilaritiesInUnitInterval) {
  for (int rep = 0; rep < 300; ++rep) {
    const std::string a = RandomWord(&rng_), b = RandomWord(&rng_);
    for (double s : {JaroSimilarity(a, b), JaroWinklerSimilarity(a, b)}) {
      EXPECT_GE(s, 0.0) << a << " / " << b;
      EXPECT_LE(s, 1.0) << a << " / " << b;
    }
  }
}

TEST_F(TextPropertyTest, JaroWinklerAtLeastJaro) {
  for (int rep = 0; rep < 300; ++rep) {
    const std::string a = RandomWord(&rng_), b = RandomWord(&rng_);
    EXPECT_GE(JaroWinklerSimilarity(a, b) + 1e-12, JaroSimilarity(a, b));
  }
}

TEST_F(TextPropertyTest, SetSimilaritiesSymmetric) {
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<std::string> a, b;
    const size_t na = 1 + rng_.NextBelow(6), nb = 1 + rng_.NextBelow(6);
    for (size_t i = 0; i < na; ++i) a.push_back(RandomWord(&rng_, 5));
    for (size_t i = 0; i < nb; ++i) b.push_back(RandomWord(&rng_, 5));
    EXPECT_DOUBLE_EQ(JaccardSimilarity(a, b), JaccardSimilarity(b, a));
  }
}

}  // namespace
}  // namespace humo::text
