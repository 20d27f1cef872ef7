#include "text/tfidf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "text/token_dictionary.h"

namespace humo::text {
namespace {

std::vector<std::vector<std::string>> Corpus() {
  return {{"entity", "resolution", "survey"},
          {"entity", "matching", "rules"},
          {"stream", "processing", "engine"}};
}

TEST(TfIdfTest, FitCountsDocuments) {
  TfIdfModel model;
  model.Fit(Corpus());
  EXPECT_EQ(model.num_documents(), 3u);
}

TEST(TfIdfTest, RareTokensWeighMore) {
  TfIdfModel model;
  model.Fit(Corpus());
  // "entity" appears in 2 docs, "survey" in 1: idf(survey) > idf(entity).
  EXPECT_GT(model.Idf("survey"), model.Idf("entity"));
}

TEST(TfIdfTest, UnknownTokenGetsMaxIdf) {
  TfIdfModel model;
  model.Fit(Corpus());
  EXPECT_GT(model.Idf("neverseen"), model.Idf("survey"));
}

TEST(TfIdfTest, TransformIsL2Normalized) {
  TfIdfModel model;
  model.Fit(Corpus());
  const auto v = model.Transform({"entity", "resolution", "survey"});
  double norm_sq = 0.0;
  for (const auto& [tok, w] : v) norm_sq += w * w;
  EXPECT_NEAR(norm_sq, 1.0, 1e-12);
}

TEST(TfIdfTest, EmptyDocumentTransformsToEmptyVector) {
  TfIdfModel model;
  model.Fit(Corpus());
  EXPECT_TRUE(model.Transform({}).empty());
}

TEST(TfIdfTest, CosineSelfSimilarityIsOne) {
  TfIdfModel model;
  model.Fit(Corpus());
  const auto v = model.Transform({"entity", "matching"});
  EXPECT_NEAR(TfIdfModel::Cosine(v, v), 1.0, 1e-12);
}

TEST(TfIdfTest, CosineDisjointIsZero) {
  TfIdfModel model;
  model.Fit(Corpus());
  const auto a = model.Transform({"entity"});
  const auto b = model.Transform({"stream"});
  EXPECT_DOUBLE_EQ(TfIdfModel::Cosine(a, b), 0.0);
}

TEST(TfIdfTest, CosineOrdersByOverlap) {
  TfIdfModel model;
  model.Fit(Corpus());
  const auto q = model.Transform({"entity", "resolution"});
  const auto close = model.Transform({"entity", "resolution", "survey"});
  const auto far = model.Transform({"stream", "processing"});
  EXPECT_GT(TfIdfModel::Cosine(q, close), TfIdfModel::Cosine(q, far));
}

TEST(TfIdfTest, TermFrequencyMatters) {
  TfIdfModel model;
  model.Fit(Corpus());
  const auto once = model.Transform({"entity", "stream"});
  const auto twice = model.Transform({"entity", "entity", "stream"});
  // Repeating "entity" shifts weight toward it.
  EXPECT_GT(twice.at("entity"), once.at("entity"));
}

TEST(TfIdfTest, FitDictionaryIdfEqualsFitIdfBitwise) {
  // The id API (FitDictionary) and the string API (Fit) on one corpus give
  // every token the same IDF value, bit for bit.
  std::vector<std::vector<std::string>> corpus = Corpus();
  corpus.push_back({"entity", "entity", "survey", "stream"});
  TokenDictionary dict;
  for (const auto& doc : corpus) {
    std::vector<uint32_t> ids;
    for (const auto& t : doc) ids.push_back(dict.Intern(t));
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    dict.CountDocument(ids.data(), ids.size());
  }
  TfIdfModel by_id;
  by_id.FitDictionary(dict);
  TfIdfModel by_string;
  by_string.Fit(corpus);
  EXPECT_EQ(by_id.num_documents(), by_string.num_documents());
  for (uint32_t id = 0; id < dict.size(); ++id) {
    const std::string token(dict.TokenOf(id));
    EXPECT_EQ(by_id.IdfById(id), by_string.Idf(token)) << token;
  }
  // Past the fitted dictionary both give the unseen-token smoothing.
  EXPECT_EQ(by_id.IdfById(static_cast<uint32_t>(dict.size())),
            by_string.Idf("neverseen"));
}

}  // namespace
}  // namespace humo::text
