#include "text/simd_similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "text/tfidf.h"
#include "text/token_dictionary.h"

namespace humo::text {
namespace {

/// Sorted unique id set of size `n` drawn from [0, universe).
std::vector<uint32_t> RandomIdSet(Rng* rng, size_t n, uint32_t universe) {
  std::vector<uint32_t> ids;
  ids.reserve(n);
  while (ids.size() < n) {
    ids.push_back(static_cast<uint32_t>(rng->NextBelow(universe)));
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  return ids;
}

std::vector<double> RandomWeights(Rng* rng, size_t n) {
  std::vector<double> w(n);
  for (double& v : w) v = rng->NextDouble();
  return w;
}

/// Reference intersection via std::set_intersection.
size_t ReferenceIntersection(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

/// The size/sparsity grid every kernel test sweeps: sizes around the AVX2
/// lane width (8) plus larger skewed combinations, over a dense universe
/// (many collisions) and a sparse one (few).
const size_t kSizes[] = {0, 1, 2, 3, 7, 8, 9, 31, 64, 200};
const uint32_t kUniverses[] = {64, 1u << 20};

TEST(SortedIdIntersectionTest, MatchesReferenceOnGrid) {
  Rng rng(20260807);
  for (uint32_t universe : kUniverses) {
    for (size_t na : kSizes) {
      for (size_t nb : kSizes) {
        if (na > universe || nb > universe) continue;
        const auto a = RandomIdSet(&rng, na, universe);
        const auto b = RandomIdSet(&rng, nb, universe);
        EXPECT_EQ(SortedIdIntersection(a.data(), a.size(), b.data(), b.size()),
                  ReferenceIntersection(a, b))
            << "universe=" << universe << " na=" << na << " nb=" << nb;
      }
    }
  }
}

#if defined(__GNUC__) && defined(__x86_64__)
TEST(SortedIdIntersectionTest, Avx2BitIdenticalToScalarOnGrid) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(987654321);
  for (uint32_t universe : kUniverses) {
    for (size_t na : kSizes) {
      for (size_t nb : kSizes) {
        if (na > universe || nb > universe) continue;
        const auto a = RandomIdSet(&rng, na, universe);
        const auto b = RandomIdSet(&rng, nb, universe);
        EXPECT_EQ(
            internal::SortedIdIntersectionAvx2(a.data(), a.size(), b.data(),
                                               b.size()),
            internal::SortedIdIntersectionScalar(a.data(), a.size(), b.data(),
                                                 b.size()))
            << "universe=" << universe << " na=" << na << " nb=" << nb;
      }
    }
  }
}

TEST(IdWeightedDotTest, Avx2BitIdenticalToScalarOnGrid) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(13579);
  for (uint32_t universe : kUniverses) {
    for (size_t na : kSizes) {
      for (size_t nb : kSizes) {
        if (na > universe || nb > universe) continue;
        const auto a = RandomIdSet(&rng, na, universe);
        const auto b = RandomIdSet(&rng, nb, universe);
        const auto wa = RandomWeights(&rng, a.size());
        const auto wb = RandomWeights(&rng, b.size());
        const double simd = internal::IdWeightedDotAvx2(
            a.data(), wa.data(), a.size(), b.data(), wb.data(), b.size());
        const double scalar = internal::IdWeightedDotScalar(
            a.data(), wa.data(), a.size(), b.data(), wb.data(), b.size());
        // Bitwise equality, not tolerance: the AVX2 kernel only finds the
        // matching lane and accumulates scalar in the same order.
        EXPECT_EQ(simd, scalar)
            << "universe=" << universe << " na=" << na << " nb=" << nb;
      }
    }
  }
}
#endif  // __GNUC__ && __x86_64__

TEST(IdSetSimilarityTest, SetMetricConventions) {
  const std::vector<uint32_t> empty;
  const std::vector<uint32_t> one = {5};
  // Both empty: 1.0, matching JaccardSimilarity's string convention.
  EXPECT_EQ(IdSetSimilarity(empty.data(), 0, empty.data(), 0,
                            IdSetMetric::kJaccard),
            1.0);
  // One side empty: 0.0.
  EXPECT_EQ(
      IdSetSimilarity(one.data(), 1, empty.data(), 0, IdSetMetric::kJaccard),
      0.0);
  // Identical singletons: 1.0.
  EXPECT_EQ(
      IdSetSimilarity(one.data(), 1, one.data(), 1, IdSetMetric::kJaccard),
      1.0);
}

TEST(IdSetSimilarityTest, JaccardValue) {
  const std::vector<uint32_t> a = {1, 2, 3, 4};
  const std::vector<uint32_t> b = {3, 4, 5, 6};
  EXPECT_DOUBLE_EQ(
      IdSetSimilarity(a.data(), a.size(), b.data(), b.size(),
                      IdSetMetric::kJaccard),
      2.0 / 6.0);
}

/// Builds IdSetColumns over a flat set of records for batch tests.
struct FlatColumns {
  std::vector<uint32_t> offsets{0};
  std::vector<uint32_t> ids;
  std::vector<double> weights;

  void AddRecord(const std::vector<uint32_t>& rec_ids,
                 const std::vector<double>& rec_w) {
    ids.insert(ids.end(), rec_ids.begin(), rec_ids.end());
    weights.insert(weights.end(), rec_w.begin(), rec_w.end());
    offsets.push_back(static_cast<uint32_t>(ids.size()));
  }

  IdSetColumns View() const { return {offsets.data(), ids.data(),
                                      weights.data()}; }
  size_t size() const { return offsets.size() - 1; }
};

FlatColumns RandomColumns(Rng* rng, size_t num_records, uint32_t universe) {
  FlatColumns cols;
  for (size_t r = 0; r < num_records; ++r) {
    const size_t n = kSizes[rng->NextBelow(std::size(kSizes))];
    const size_t capped = std::min<size_t>(n, universe / 2);
    auto ids = RandomIdSet(rng, capped, universe);
    auto w = RandomWeights(rng, ids.size());
    // L2-normalize so cosine lands in [0, 1].
    double norm = 0.0;
    for (double v : w) norm += v * v;
    if (norm > 0.0) {
      norm = std::sqrt(norm);
      for (double& v : w) v /= norm;
    }
    cols.AddRecord(ids, w);
  }
  return cols;
}

TEST(BatchIdSetSimilarityTest, MatchesPerPairCalls) {
  Rng rng(24680);
  const FlatColumns a = RandomColumns(&rng, 60, 512);
  const FlatColumns b = RandomColumns(&rng, 60, 512);
  std::vector<uint32_t> pa, pb;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); j += 7) {
      pa.push_back(static_cast<uint32_t>(i));
      pb.push_back(static_cast<uint32_t>(j));
    }
  }
  for (IdSetMetric metric :
       {IdSetMetric::kJaccard, IdSetMetric::kCosineTfIdf}) {
    std::vector<double> batch(pa.size());
    BatchIdSetSimilarity(a.View(), b.View(), pa.data(), pb.data(), pa.size(),
                         metric, batch.data());
    for (size_t k = 0; k < pa.size(); ++k) {
      const uint32_t ai = pa[k], bj = pb[k];
      const uint32_t ao = a.offsets[ai], bo = b.offsets[bj];
      const size_t an = a.offsets[ai + 1] - ao, bn = b.offsets[bj + 1] - bo;
      double expected;
      if (metric == IdSetMetric::kCosineTfIdf) {
        expected = IdWeightedDot(a.ids.data() + ao, a.weights.data() + ao, an,
                                 b.ids.data() + bo, b.weights.data() + bo, bn);
      } else {
        expected = IdSetSimilarity(a.ids.data() + ao, an, b.ids.data() + bo,
                                   bn, metric);
      }
      ASSERT_EQ(batch[k], expected) << "pair " << k;
    }
  }
}

TEST(BatchIdSetSimilarityTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(112233);
  const FlatColumns a = RandomColumns(&rng, 200, 1024);
  const FlatColumns b = RandomColumns(&rng, 200, 1024);
  std::vector<uint32_t> pa, pb;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); j += 3) {
      pa.push_back(static_cast<uint32_t>(i));
      pb.push_back(static_cast<uint32_t>(j));
    }
  }
  ThreadPool::SetGlobalThreads(1);
  std::vector<double> serial(pa.size());
  BatchIdSetSimilarity(a.View(), b.View(), pa.data(), pb.data(), pa.size(),
                       IdSetMetric::kJaccard, serial.data());
  ThreadPool::SetGlobalThreads(4);
  std::vector<double> parallel(pa.size());
  BatchIdSetSimilarity(a.View(), b.View(), pa.data(), pb.data(), pa.size(),
                       IdSetMetric::kJaccard, parallel.data());
  ThreadPool::SetGlobalThreads(0);
  EXPECT_EQ(serial, parallel);
}

TEST(IdWeightedDotTest, AgreesWithTfIdfCosine) {
  // Same two documents through the string pipeline and the id pipeline;
  // the cosine must agree bitwise (same multiplies in ascending-id order).
  TokenDictionary dict;
  const std::vector<uint32_t> doc_a_ids = {dict.Intern("data"),
                                           dict.Intern("entity")};
  const std::vector<uint32_t> doc_b_ids = {dict.Intern("entity"),
                                           dict.Intern("match")};
  dict.CountDocument(doc_a_ids.data(), doc_a_ids.size());
  dict.CountDocument(doc_b_ids.data(), doc_b_ids.size());

  TfIdfModel model;
  model.FitDictionary(dict);

  const std::vector<uint32_t> tf = {1, 1};
  std::vector<double> wa(2), wb(2);
  // TransformIds expects ascending ids; both docs were interned in
  // ascending first-seen order already.
  model.TransformIds(doc_a_ids.data(), tf.data(), 2, wa.data());
  model.TransformIds(doc_b_ids.data(), tf.data(), 2, wb.data());

  const double id_cosine =
      IdWeightedDot(doc_a_ids.data(), wa.data(), 2, doc_b_ids.data(),
                    wb.data(), 2);
  // The string API answers from Fit alone: fit it on the same documents.
  TfIdfModel string_model;
  string_model.Fit({{"data", "entity"}, {"entity", "match"}});
  const double string_cosine =
      TfIdfModel::Cosine(string_model.Transform({"data", "entity"}),
                         string_model.Transform({"entity", "match"}));
  EXPECT_NEAR(id_cosine, string_cosine, 1e-12);
}

}  // namespace
}  // namespace humo::text
