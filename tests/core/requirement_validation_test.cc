#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/baseline_optimizer.h"
#include "core/hybrid_optimizer.h"
#include "core/partial_sampling_optimizer.h"
#include "core/risk_aware_optimizer.h"
#include "core/solution.h"
#include "core/streaming_resolver.h"
#include "data/pair_simulator.h"

namespace humo::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Requirements outside Definition 1's ranges: theta outside (0, 1), alpha
/// or beta outside [0, 1], and NaN in each field.
const std::vector<QualityRequirement>& Malformed() {
  static const std::vector<QualityRequirement> kMalformed = {
      {0.9, 0.9, 1.0},   // theta at the open upper end
      {0.9, 0.9, 1.5},   // theta above 1
      {0.9, 0.9, 0.0},   // theta at the open lower end
      {0.9, 0.9, -0.5},  // theta below 0
      {0.9, 0.9, kNaN},  // theta NaN
      {kNaN, 0.9, 0.9},  // alpha NaN
      {1.2, 0.9, 0.9},   // alpha above 1
      {-0.1, 0.9, 0.9},  // alpha below 0
      {0.9, kNaN, 0.9},  // beta NaN
  };
  return kMalformed;
}

std::string Describe(const QualityRequirement& req) {
  return "alpha=" + std::to_string(req.alpha) +
         " beta=" + std::to_string(req.beta) +
         " theta=" + std::to_string(req.theta);
}

TEST(ValidateRequirementTest, AcceptsDefinitionOneRanges) {
  EXPECT_TRUE(ValidateRequirement({0.9, 0.9, 0.9}).ok());
  EXPECT_TRUE(ValidateRequirement({1.0, 1.0, 0.9}).ok());
  EXPECT_TRUE(ValidateRequirement({0.0, 0.0, 0.5}).ok());
  for (const QualityRequirement& req : Malformed()) {
    EXPECT_EQ(ValidateRequirement(req).code(), StatusCode::kInvalidArgument)
        << Describe(req);
  }
}

/// Every certifier rejects a malformed requirement before it inspects a
/// single pair, one-shot and streamed alike.
TEST(ValidateRequirementTest, EveryCertifierRejectsMalformedRequirements) {
  const data::Workload w = data::SimulatePairs(data::DsConfigSmall(555, 4000));
  const SubsetPartition partition(&w, 200);
  for (const QualityRequirement& req : Malformed()) {
    SCOPED_TRACE(Describe(req));
    Oracle base(&w), samp(&w), hybr(&w), risk(&w);
    const Status statuses[] = {
        BaselineOptimizer().Optimize(partition, req, &base).status(),
        PartialSamplingOptimizer().Optimize(partition, req, &samp).status(),
        HybridOptimizer().Optimize(partition, req, &hybr).status(),
        RiskAwareOptimizer().Resolve(partition, req, &risk).status(),
    };
    for (const Status& status : statuses)
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    for (const Oracle* oracle : {&base, &samp, &hybr, &risk})
      EXPECT_EQ(oracle->cost(), 0u);

    for (StreamCertifier certifier :
         {StreamCertifier::kSamp, StreamCertifier::kRisk}) {
      StreamingOptions options;
      options.certifier = certifier;
      StreamingResolver resolver(options, req);
      data::Shard shard;
      shard.pairs = w.MaterializePairs();
      resolver.Ingest(std::move(shard));
      EXPECT_EQ(resolver.Certify().status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(resolver.total_inspections(), 0u);
    }
  }
}

}  // namespace
}  // namespace humo::core
