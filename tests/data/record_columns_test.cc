#include "data/record_columns.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/scale_generator.h"
#include "text/token_similarity.h"
#include "text/tokenizer.h"

namespace humo::data {
namespace {

RecordTable SmallTable() {
  RecordTable t({"name"});
  EXPECT_TRUE(t.Add({0, 100, {"Alpha beta GAMMA"}}).ok());
  EXPECT_TRUE(t.Add({1, 101, {"beta beta delta"}}).ok());
  EXPECT_TRUE(t.Add({2, 102, {""}}).ok());
  EXPECT_TRUE(t.Add({3, 103, {"gamma alpha"}}).ok());
  return t;
}

TEST(RecordColumnsTest, SortedUniqueIdsPerRecord) {
  text::TokenDictionary dict;
  const RecordColumns cols = RecordColumns::Build(SmallTable(), 0, &dict);
  ASSERT_EQ(cols.num_records(), 4u);
  for (size_t r = 0; r < cols.num_records(); ++r) {
    const uint32_t* ids = cols.ids(r);
    for (size_t i = 1; i < cols.num_ids(r); ++i) {
      EXPECT_LT(ids[i - 1], ids[i]) << "record " << r;
    }
  }
  EXPECT_EQ(cols.num_ids(0), 3u);  // alpha beta gamma
  EXPECT_EQ(cols.num_ids(1), 2u);  // beta (tf 2), delta
  EXPECT_EQ(cols.num_ids(2), 0u);  // empty value
  EXPECT_EQ(cols.num_ids(3), 2u);  // gamma alpha
}

TEST(RecordColumnsTest, TermFrequencies) {
  text::TokenDictionary dict;
  const RecordColumns cols = RecordColumns::Build(SmallTable(), 0, &dict);
  const uint32_t beta = dict.IdOf("beta");
  ASSERT_NE(beta, text::TokenDictionary::kNoToken);
  const uint32_t o = cols.offsets()[1];
  bool found = false;
  for (size_t i = 0; i < cols.num_ids(1); ++i) {
    if (cols.token_ids()[o + i] == beta) {
      EXPECT_EQ(cols.term_freq()[o + i], 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RecordColumnsTest, DictionaryStatsCountOneDocumentPerRecord) {
  text::TokenDictionary dict;
  const RecordColumns cols = RecordColumns::Build(SmallTable(), 0, &dict);
  (void)cols;
  EXPECT_EQ(dict.num_documents(), 4u);
  // "beta" appears in records 0 and 1 (once despite tf 2), "alpha" and
  // "gamma" in records 0 and 3.
  EXPECT_EQ(dict.doc_freq()[dict.IdOf("beta")], 2u);
  EXPECT_EQ(dict.doc_freq()[dict.IdOf("alpha")], 2u);
  EXPECT_EQ(dict.doc_freq()[dict.IdOf("gamma")], 2u);
  EXPECT_EQ(dict.doc_freq()[dict.IdOf("delta")], 1u);
}

TEST(RecordColumnsTest, SharedDictionaryAgreesAcrossTables) {
  RecordTable left({"name"});
  ASSERT_TRUE(left.Add({0, 0, {"omega sigma"}}).ok());
  RecordTable right({"name"});
  ASSERT_TRUE(right.Add({0, 0, {"sigma kappa"}}).ok());
  text::TokenDictionary dict;
  const RecordColumns lc = RecordColumns::Build(left, 0, &dict);
  const RecordColumns rc = RecordColumns::Build(right, 0, &dict);
  // "sigma" has ONE id shared by both sides.
  const uint32_t sigma = dict.IdOf("sigma");
  bool in_left = false, in_right = false;
  for (size_t i = 0; i < lc.num_ids(0); ++i)
    in_left |= lc.ids(0)[i] == sigma;
  for (size_t i = 0; i < rc.num_ids(0); ++i)
    in_right |= rc.ids(0)[i] == sigma;
  EXPECT_TRUE(in_left);
  EXPECT_TRUE(in_right);
}

TEST(RecordColumnsTest, IdJaccardBitwiseEqualsStringJaccard) {
  const RecordTable table = SmallTable();
  text::TokenDictionary dict;
  const RecordColumns cols = RecordColumns::Build(table, 0, &dict);
  for (size_t i = 0; i < table.size(); ++i) {
    for (size_t j = 0; j < table.size(); ++j) {
      const double id_sim =
          text::IdSetSimilarity(cols.ids(i), cols.num_ids(i), cols.ids(j),
                                cols.num_ids(j), text::IdSetMetric::kJaccard);
      const double string_sim = text::JaccardSimilarity(
          table[i].attributes[0], table[j].attributes[0]);
      // Same integer counts, same division: bitwise equal.
      EXPECT_EQ(id_sim, string_sim) << "pair " << i << "," << j;
    }
  }
}

TEST(RecordColumnsTest, AttachTfIdfProducesUnitNorms) {
  const RecordTable table = SmallTable();
  text::TokenDictionary dict;
  RecordColumns cols = RecordColumns::Build(table, 0, &dict);
  text::TfIdfModel model;
  model.FitDictionary(dict);
  cols.AttachTfIdf(model);
  ASSERT_EQ(cols.weights().size(), cols.token_ids().size());
  for (size_t r = 0; r < cols.num_records(); ++r) {
    if (cols.num_ids(r) == 0) continue;
    double norm = 0.0;
    const uint32_t o = cols.offsets()[r];
    for (size_t i = 0; i < cols.num_ids(r); ++i) {
      norm += cols.weights()[o + i] * cols.weights()[o + i];
    }
    EXPECT_NEAR(norm, 1.0, 1e-12) << "record " << r;
  }
}

TEST(RecordColumnsTest, BuildDeterministicAcrossThreadCounts) {
  RecordTable t({"name"});
  for (uint32_t i = 0; i < 600; ++i) {
    (void)t.Add({i, i,
                 {"tok" + std::to_string(i % 17) + " tok" +
                  std::to_string(i % 5) + " word" + std::to_string(i % 29)}});
  }
  ThreadPool::SetGlobalThreads(1);
  text::TokenDictionary dict1;
  const RecordColumns c1 = RecordColumns::Build(t, 0, &dict1);
  ThreadPool::SetGlobalThreads(4);
  text::TokenDictionary dict4;
  const RecordColumns c4 = RecordColumns::Build(t, 0, &dict4);
  ThreadPool::SetGlobalThreads(0);
  ASSERT_EQ(dict1.size(), dict4.size());
  for (uint32_t id = 0; id < dict1.size(); ++id) {
    EXPECT_EQ(dict1.TokenOf(id), dict4.TokenOf(id)) << "id " << id;
  }
  EXPECT_EQ(dict1.doc_freq(), dict4.doc_freq());
  EXPECT_EQ(c1.offsets(), c4.offsets());
  EXPECT_EQ(c1.token_ids(), c4.token_ids());
  EXPECT_EQ(c1.term_freq(), c4.term_freq());
}

/// The string-keyed dictionary and string-vector Build that the arena
/// dictionary and string_view tokenization replaced, kept serial and
/// allocation-heavy on purpose as the reference the fast path must match
/// bit for bit.
struct ReferenceDictionary {
  std::unordered_map<std::string, uint32_t> id_by_token;
  std::vector<std::string> tokens;
  std::vector<uint32_t> doc_freq;
  size_t num_documents = 0;

  uint32_t Intern(const std::string& token) {
    const auto it = id_by_token.find(token);
    if (it != id_by_token.end()) return it->second;
    const uint32_t id = static_cast<uint32_t>(tokens.size());
    tokens.push_back(token);
    doc_freq.push_back(0);
    id_by_token.emplace(token, id);
    return id;
  }
};

struct ReferenceColumns {
  std::vector<uint32_t> offsets{0};
  std::vector<uint32_t> token_ids;
  std::vector<uint32_t> term_freq;
  std::vector<double> weights;
};

ReferenceColumns ReferenceBuild(const RecordTable& table,
                                size_t attribute_index,
                                ReferenceDictionary* dict) {
  ReferenceColumns cols;
  for (size_t r = 0; r < table.size(); ++r) {
    std::vector<std::string> toks = text::WordTokens(
        NormalizeForMatching(table[r].attributes[attribute_index]));
    std::sort(toks.begin(), toks.end());
    std::vector<std::pair<uint32_t, uint32_t>> id_tf;
    for (size_t i = 0; i < toks.size();) {
      size_t j = i + 1;
      while (j < toks.size() && toks[j] == toks[i]) ++j;
      id_tf.emplace_back(dict->Intern(toks[i]), static_cast<uint32_t>(j - i));
      i = j;
    }
    std::sort(id_tf.begin(), id_tf.end());
    ++dict->num_documents;
    for (const auto& [id, tf] : id_tf) {
      cols.token_ids.push_back(id);
      cols.term_freq.push_back(tf);
      ++dict->doc_freq[id];
    }
    cols.offsets.push_back(static_cast<uint32_t>(cols.token_ids.size()));
  }
  return cols;
}

/// Reference weights: IDF from the string API's Fit over every record's
/// token list, then TransformIds' arithmetic in the same order.
void ReferenceAttachTfIdf(const ReferenceDictionary& dict,
                          const text::TfIdfModel& string_model,
                          ReferenceColumns* cols) {
  cols->weights.resize(cols->token_ids.size());
  for (size_t r = 0; r + 1 < cols->offsets.size(); ++r) {
    double norm_sq = 0.0;
    for (uint32_t k = cols->offsets[r]; k < cols->offsets[r + 1]; ++k) {
      const double w = static_cast<double>(cols->term_freq[k]) *
                       string_model.Idf(dict.tokens[cols->token_ids[k]]);
      cols->weights[k] = w;
      norm_sq += w * w;
    }
    if (norm_sq > 0.0) {
      const double inv = 1.0 / std::sqrt(norm_sq);
      for (uint32_t k = cols->offsets[r]; k < cols->offsets[r + 1]; ++k) {
        cols->weights[k] *= inv;
      }
    }
  }
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Empty values, punctuation-only values, repeated tokens, tokens longer
/// than one 8-byte hash word, and non-ASCII bytes (which normalize to
/// separators).
RecordTable EdgeCaseTable() {
  const std::vector<std::string> values = {
      "",
      "   ",
      "!!! --- ...",
      "Foo foo FOO bar foo",
      "na\xc3\xafve caf\xc3\xa9 \xff\xfe",
      "a-b-c a.b.c A B C",
      "tab\tsep\nnewline\r\n end",
      "internationalization internationalisation x",
      "0123456789abcdef 0123456789abcdeg 01234567",
      "bar",
      "a ab abc abcd abcde abcdef abcdefg abcdefgh abcdefghi",
  };
  RecordTable t({"value"});
  for (uint32_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(t.Add({i, i, {values[i]}}).ok());
  }
  return t;
}

TEST(RecordColumnsTest, MatchesStringMapDictionaryReference) {
  struct Input {
    RecordTable left, right;
    size_t attribute;
  };
  std::vector<Input> inputs;
  for (const uint64_t seed : {777u, 4242u}) {
    ScaleTablesConfig config;
    config.groups = 64;
    config.perturb_names = true;
    config.seed = seed;
    ScaleTables tables = GenerateScaleTables(config);
    for (const size_t attribute : {0u, 1u}) {
      inputs.push_back({tables.left, tables.right, attribute});
    }
  }
  inputs.push_back({EdgeCaseTable(), SmallTable(), 0});

  for (const Input& in : inputs) {
    // Both tables share one dictionary, as the record pipeline builds them.
    ReferenceDictionary ref_dict;
    ReferenceColumns ref_left = ReferenceBuild(in.left, in.attribute,
                                               &ref_dict);
    ReferenceColumns ref_right = ReferenceBuild(in.right, in.attribute,
                                                &ref_dict);
    std::vector<std::vector<std::string>> corpus;
    for (const RecordTable* t : {&in.left, &in.right}) {
      for (size_t r = 0; r < t->size(); ++r) {
        corpus.push_back(text::WordTokens(
            NormalizeForMatching((*t)[r].attributes[in.attribute])));
      }
    }
    text::TfIdfModel string_model;
    string_model.Fit(corpus);
    ReferenceAttachTfIdf(ref_dict, string_model, &ref_left);
    ReferenceAttachTfIdf(ref_dict, string_model, &ref_right);

    for (const size_t threads : {1u, 4u}) {
      ThreadPool::SetGlobalThreads(threads);
      text::TokenDictionary dict;
      RecordColumns left = RecordColumns::Build(in.left, in.attribute, &dict);
      RecordColumns right =
          RecordColumns::Build(in.right, in.attribute, &dict);
      text::TfIdfModel model;
      model.FitDictionary(dict);
      left.AttachTfIdf(model);
      right.AttachTfIdf(model);

      const std::string where = "attribute " + std::to_string(in.attribute) +
                                ", " + std::to_string(threads) + " threads";
      for (const auto& [got, want] :
           {std::pair<const RecordColumns*, const ReferenceColumns*>{
                &left, &ref_left},
            {&right, &ref_right}}) {
        EXPECT_EQ(got->offsets(), want->offsets) << where;
        EXPECT_EQ(got->token_ids(), want->token_ids) << where;
        EXPECT_EQ(got->term_freq(), want->term_freq) << where;
        EXPECT_TRUE(BitwiseEqual(got->weights(), want->weights)) << where;
      }
      EXPECT_EQ(dict.num_documents(), ref_dict.num_documents) << where;
      EXPECT_EQ(dict.doc_freq(), ref_dict.doc_freq) << where;
      ASSERT_EQ(dict.size(), ref_dict.tokens.size()) << where;
      for (uint32_t id = 0; id < dict.size(); ++id) {
        ASSERT_EQ(dict.TokenOf(id), ref_dict.tokens[id]) << where;
      }
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(BatchScorePairsTest, MatchesPairwiseStringScoring) {
  const RecordTable table = SmallTable();
  text::TokenDictionary dict;
  const RecordColumns cols = RecordColumns::Build(table, 0, &dict);
  std::vector<uint32_t> li, rj;
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      li.push_back(i);
      rj.push_back(j);
    }
  }
  std::vector<double> scores(li.size());
  BatchScorePairs(cols, cols, li.data(), rj.data(), li.size(),
                  text::IdSetMetric::kJaccard, scores.data());
  for (size_t k = 0; k < li.size(); ++k) {
    EXPECT_EQ(scores[k],
              text::JaccardSimilarity(table[li[k]].attributes[0],
                                      table[rj[k]].attributes[0]))
        << "pair " << k;
  }
}

}  // namespace
}  // namespace humo::data
