#include <gtest/gtest.h>

#include <algorithm>

#include "core/hybrid_optimizer.h"
#include "core/solution.h"
#include "data/blocking.h"
#include "data/product_generator.h"
#include "data/publication_generator.h"
#include "eval/evaluation.h"
#include "ml/linear_svm.h"
#include "text/attribute_similarity.h"
#include "text/jaro.h"
#include "text/token_similarity.h"

namespace humo {
namespace {

/// Full record-level pipeline: generate records -> attribute similarities
/// with distinct-count weights -> blocking -> HUMO. This exercises the data
/// wrangling path the pair-level simulators skip.
text::AggregatedSimilarity PublicationSimilarity(
    const data::PublicationTables& tables) {
  std::vector<std::vector<std::string>> all_records;
  for (const auto& r : tables.curated.records())
    all_records.push_back(r.attributes);
  for (const auto& r : tables.crawled.records())
    all_records.push_back(r.attributes);
  const auto weights =
      text::AggregatedSimilarity::WeightsFromDistinctCounts(all_records, 3);
  std::vector<text::AttributeSpec> specs;
  specs.push_back({"title",
                   [](std::string_view a, std::string_view b) {
                     return text::JaccardSimilarity(a, b);
                   },
                   weights[0]});
  specs.push_back({"authors",
                   [](std::string_view a, std::string_view b) {
                     return text::JaccardSimilarity(a, b);
                   },
                   weights[1]});
  specs.push_back({"venue",
                   [](std::string_view a, std::string_view b) {
                     return text::JaroWinklerSimilarity(a, b);
                   },
                   weights[2]});
  return text::AggregatedSimilarity(std::move(specs));
}

TEST(RecordPipelineTest, PublicationWorkloadHasMonotoneShape) {
  data::PublicationGeneratorOptions o;
  o.num_curated = 150;
  o.num_crawled = 600;
  o.seed = 3;
  const auto tables = GeneratePublications(o);
  const auto sim = PublicationSimilarity(tables);
  const auto scorer = [&sim](const data::Record& a, const data::Record& b) {
    return sim(a.attributes, b.attributes);
  };
  const data::Workload w =
      data::ThresholdBlock(tables.curated, tables.crawled, scorer, 0.2);
  ASSERT_GT(w.size(), 100u);
  ASSERT_GT(w.CountMatches(), 10u);

  // Match proportion in the top similarity third should exceed the bottom
  // third — the monotonicity HUMO relies on.
  const size_t third = w.size() / 3;
  auto proportion = [&](size_t from, size_t to) {
    size_t matches = 0;
    for (size_t i = from; i < to; ++i) matches += w[i].is_match;
    return static_cast<double>(matches) / static_cast<double>(to - from);
  };
  EXPECT_GT(proportion(2 * third, w.size()), proportion(0, third));
}

TEST(RecordPipelineTest, BlockingKeepsMostMatches) {
  data::PublicationGeneratorOptions o;
  o.num_curated = 100;
  o.num_crawled = 400;
  const auto tables = GeneratePublications(o);
  const auto sim = PublicationSimilarity(tables);
  const auto scorer = [&sim](const data::Record& a, const data::Record& b) {
    return sim(a.attributes, b.attributes);
  };
  const data::Workload w =
      data::ThresholdBlock(tables.curated, tables.crawled, scorer, 0.15);
  const auto stats = data::ComputeBlockingStats(tables.curated,
                                                tables.crawled, w);
  EXPECT_GT(stats.ReductionRatio(), 0.3);
  EXPECT_GT(stats.PairCompleteness(), 0.85);
}

TEST(RecordPipelineTest, HumoDeliversQualityOnGeneratedPublications) {
  data::PublicationGeneratorOptions o;
  o.num_curated = 200;
  o.num_crawled = 2000;
  o.duplicate_fraction = 0.3;
  o.seed = 17;
  const auto tables = GeneratePublications(o);
  const auto sim = PublicationSimilarity(tables);
  const auto scorer = [&sim](const data::Record& a, const data::Record& b) {
    return sim(a.attributes, b.attributes);
  };
  const data::Workload w =
      data::ThresholdBlock(tables.curated, tables.crawled, scorer, 0.1);
  ASSERT_GT(w.size(), 2000u);

  core::SubsetPartition p(&w, 100);
  core::Oracle oracle(&w);
  core::HybridOptimizer opt;
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  auto sol = opt.Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  const auto result = core::ApplySolution(p, *sol, &oracle);
  const auto q = eval::QualityOf(w, result.labels);
  EXPECT_GE(q.precision, 0.85);
  EXPECT_GE(q.recall, 0.85);
}

TEST(RecordPipelineTest, SvmTrainedOnAttributeFeaturesBeatsChance) {
  data::ProductGeneratorOptions o;
  o.num_left = 150;
  o.num_right = 400;
  o.seed = 23;
  const auto tables = GenerateProducts(o);
  // Features: per-attribute similarities.
  ml::Dataset dataset;
  for (const auto& l : tables.left.records()) {
    for (const auto& r : tables.right.records()) {
      const double name_sim =
          text::JaccardSimilarity(l.attributes[0], r.attributes[0]);
      if (name_sim < 0.05) continue;  // blocking
      const double desc_sim =
          text::JaccardSimilarity(l.attributes[1], r.attributes[1]);
      dataset.Add({name_sim, desc_sim},
                  l.entity_id == r.entity_id ? 1 : 0);
    }
  }
  ASSERT_GT(dataset.size(), 100u);
  ASSERT_GT(std::count(dataset.labels.begin(), dataset.labels.end(), 1), 10);

  Rng rng(1);
  const auto split = ml::SplitDataset(dataset, 0.7, &rng);
  ml::SvmOptions svm_opts;
  svm_opts.positive_weight = 5.0;
  const auto svm = ml::LinearSvm::Train(split.train, svm_opts);
  std::vector<int> preds;
  for (const auto& f : split.test.features)
    preds.push_back(svm.Predict(f));
  const auto m = ml::EvaluateLabels(preds, split.test.labels);
  EXPECT_GT(m.f1(), 0.3);  // product matching is hard; beat chance clearly
}

}  // namespace
}  // namespace humo
