#include "text/token_similarity.h"

#include <gtest/gtest.h>

namespace humo::text {
namespace {

TEST(JaccardTest, IdenticalSets) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity(std::vector<std::string>{"a", "b"},
                                     std::vector<std::string>{"b", "a"}),
                   1.0);
}

TEST(JaccardTest, DisjointSets) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity(std::vector<std::string>{"a"},
                                     std::vector<std::string>{"b"}),
                   0.0);
}

TEST(JaccardTest, PartialOverlap) {
  // {a,b,c} vs {b,c,d}: 2 shared / 4 union = 0.5.
  EXPECT_DOUBLE_EQ(
      JaccardSimilarity(std::vector<std::string>{"a", "b", "c"},
                        std::vector<std::string>{"b", "c", "d"}),
      0.5);
}

TEST(JaccardTest, BothEmpty) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity(std::vector<std::string>{},
                                     std::vector<std::string>{}),
                   1.0);
}

TEST(JaccardTest, OneEmpty) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a"}, std::vector<std::string>{}), 0.0);
}

TEST(JaccardTest, DuplicatesIgnored) {
  EXPECT_DOUBLE_EQ(
      JaccardSimilarity(std::vector<std::string>{"a", "a", "b"},
                        std::vector<std::string>{"a", "b", "b"}),
      1.0);
}

TEST(JaccardTest, StringOverloadNormalizes) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity("The Quick FOX!", "quick fox, the"), 1.0);
}

}  // namespace
}  // namespace humo::text
