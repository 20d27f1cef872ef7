#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/partial_sampling_optimizer.h"
#include "core/risk_aware_optimizer.h"
#include "core/solution.h"
#include "core/streaming_resolver.h"
#include "data/pair_simulator.h"
#include "data/workload_stream.h"
#include "eval/evaluation.h"
#include "eval/experiment.h"
#include "stats/proportion.h"

namespace humo {
namespace {

/// Coverage of the certificate on the full-size presets: the paper's
/// Tables II-IV claim that a certificate at confidence theta holds on at
/// least a theta share of runs. Each cell counts how many runs' final labels
/// meet (alpha, beta) and fails only when that count is implausibly low for
/// a rate of theta: eval::CoverageHolds, the one-sided binomial rule
/// P(X <= successes | n, theta) < 0.001 that bench_paper and bench/e2e also
/// apply. At theta = 0.9 that means <= 12 of 20 or <= 16 of 25 fail.
///
/// The rule has little power over 20 runs: a certifier that holds on 17 of
/// 20 (p = 0.32) or on 6 of 8 streaming epochs (p = 0.19) passes, so the
/// across-realization cells (a) and the streaming cells (c) record coverage
/// rather than catch a defect. The sampler-seed sweeps (b) are the part
/// that bites: they fix a realization and vary only the sampler seed, which
/// is the probability theta is stated over, so a realization on which the
/// model is wrong fails every seed (a pooled run of 100 that included them
/// among healthy realizations would still pass at 85 of 100, p = 0.073).
/// Each cell records its counts as test properties ("successes", "runs")
/// and prints them.
constexpr double kTheta = 0.9;
constexpr size_t kRealizations = 20;
constexpr size_t kSubsetSize = 200;

/// Full-size Abt-Buy and DBLP-Scholar realization s (313k and 100k pairs),
/// each generated once per test process.
const data::Workload& AbRealization(size_t s) {
  static std::map<size_t, data::Workload> cache;
  data::Workload& w = cache[s];
  if (w.size() == 0) w = data::SimulatePairs(data::AbConfig(1234 + 1000 * s));
  return w;
}

const data::Workload& DsRealization(size_t s) {
  static std::map<size_t, data::Workload> cache;
  data::Workload& w = cache[s];
  if (w.size() == 0) w = data::SimulatePairs(data::DsConfig(555 + 1000 * s));
  return w;
}

void ExpectCoverage(size_t successes, size_t runs) {
  ::testing::Test::RecordProperty("successes", static_cast<int>(successes));
  ::testing::Test::RecordProperty("runs", static_cast<int>(runs));
  // Also on stdout, which ctest's JUnit report keeps.
  std::printf("coverage: %zu of %zu runs met (alpha, beta)\n", successes, runs);
  EXPECT_TRUE(eval::CoverageHolds(successes, runs, kTheta))
      << successes << " of " << runs << " runs met (alpha, beta)";
}

bool Meets(const data::Workload& w, const std::vector<int>& labels,
           const core::QualityRequirement& req) {
  const eval::Quality q = eval::QualityOf(w, labels);
  return q.precision >= req.alpha && q.recall >= req.beta;
}

enum class Certifier { kSamp, kRisk };

const char* Name(Certifier c) {
  return c == Certifier::kSamp ? "samp" : "risk";
}

/// One certification of `w` by `certifier` with sampler seed `seed`: true
/// when its final labels meet the requirement.
bool CertifyHolds(const data::Workload& w, Certifier certifier,
                  const core::QualityRequirement& req, uint64_t seed) {
  core::SubsetPartition partition(&w, kSubsetSize);
  core::Oracle oracle(&w);
  if (certifier == Certifier::kSamp) {
    core::PartialSamplingOptions options;
    options.seed = seed;
    auto sol = core::PartialSamplingOptimizer(options).Optimize(partition, req,
                                                                &oracle);
    if (!sol.ok()) return false;
    return Meets(w, core::ApplySolution(partition, *sol, &oracle).labels, req);
  }
  core::RiskAwareOptions options;
  options.sampling.seed = seed;
  auto out = core::RiskAwareOptimizer(options).Resolve(partition, req, &oracle);
  if (!out.ok()) return false;
  return Meets(w, out->resolution.labels, req);
}

// ---- (a) across realizations: AB s = 0..19, sampler seed 5 + s. ----

struct RealizationCell {
  Certifier certifier;
  double quality;  // alpha = beta
};

// gtest would otherwise print the raw bytes, padding included, into the
// test names ctest registers.
void PrintTo(const RealizationCell& c, std::ostream* os) {
  *os << Name(c.certifier) << " at " << c.quality;
}

class AcrossRealizations : public ::testing::TestWithParam<RealizationCell> {};

TEST_P(AcrossRealizations, AbCertificateCoverage) {
  const RealizationCell cell = GetParam();
  const core::QualityRequirement req{cell.quality, cell.quality, kTheta};
  size_t held = 0;
  for (size_t s = 0; s < kRealizations; ++s)
    held += CertifyHolds(AbRealization(s), cell.certifier, req, 5 + s);
  ExpectCoverage(held, kRealizations);
}

std::vector<RealizationCell> RealizationCells() {
  std::vector<RealizationCell> cells;
  for (Certifier c : {Certifier::kSamp, Certifier::kRisk})
    for (double q : {0.8, 0.9, 0.95}) cells.push_back({c, q});
  return cells;
}

std::string RealizationCellName(
    const ::testing::TestParamInfo<RealizationCell>& info) {
  return std::string(Name(info.param.certifier)) + "_q" +
         std::to_string(std::lround(100 * info.param.quality));
}

INSTANTIATE_TEST_SUITE_P(CertificateCoverage, AcrossRealizations,
                         ::testing::ValuesIn(RealizationCells()),
                         RealizationCellName);

// ---- (b) sampler-seed sweeps: 25 seeds on one realization each. ----

struct SeedCell {
  Certifier certifier;
  size_t realization;
};

void PrintTo(const SeedCell& c, std::ostream* os) {
  *os << Name(c.certifier) << " on AB " << c.realization;
}

std::string SeedCellName(const ::testing::TestParamInfo<SeedCell>& info) {
  return std::string(Name(info.param.certifier)) + "_ab" +
         std::to_string(info.param.realization);
}

/// SAMP and RISK on AB realizations 8 and 11, where SAMP used to miss.
std::vector<SeedCell> HardCells() {
  std::vector<SeedCell> cells;
  for (Certifier c : {Certifier::kSamp, Certifier::kRisk})
    for (size_t s : {size_t{8}, size_t{11}}) cells.push_back({c, s});
  return cells;
}

class AcrossSamplerSeeds : public ::testing::TestWithParam<SeedCell> {};

TEST_P(AcrossSamplerSeeds, AbCertificateCoverage) {
  const SeedCell cell = GetParam();
  const core::QualityRequirement req{0.9, 0.9, kTheta};
  const data::Workload& w = AbRealization(cell.realization);
  constexpr size_t kSeeds = 25;
  size_t held = 0;
  for (uint64_t t = 0; t < kSeeds; ++t) {
    held += CertifyHolds(w, cell.certifier, req,
                         5 + cell.realization + 1000 * t);
  }
  ExpectCoverage(held, kSeeds);
}

INSTANTIATE_TEST_SUITE_P(CertificateCoverage, AcrossSamplerSeeds,
                         ::testing::ValuesIn(HardCells()), SeedCellName);

// ---- (c) streaming recertification: a certificate after every shard. ----

class StreamingEpochs : public ::testing::TestWithParam<SeedCell> {};

TEST_P(StreamingEpochs, AbRecertifyCoverage) {
  const SeedCell cell = GetParam();
  const core::QualityRequirement req{0.9, 0.9, kTheta};
  const data::Workload& w = AbRealization(cell.realization);
  core::StreamingOptions options;
  options.certifier = core::StreamCertifier::kSamp;
  if (cell.certifier == Certifier::kRisk)
    options.certifier = core::StreamCertifier::kRisk;
  options.sampling.seed = 5 + cell.realization;
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 8;
  stream_options.order = data::ArrivalOrder::kShuffled;
  data::WorkloadStream stream(&w, stream_options);
  core::StreamingResolver resolver(options, req);
  size_t held = 0, epochs = 0;
  data::Shard shard;
  while (stream.Next(&shard)) {
    resolver.Ingest(std::move(shard));
    auto cert = resolver.Certify();
    ++epochs;
    if (cert.ok())
      held += Meets(resolver.cumulative(), cert->resolution.labels, req);
  }
  ASSERT_EQ(epochs, stream_options.num_shards);
  ExpectCoverage(held, epochs);
}

INSTANTIATE_TEST_SUITE_P(CertificateCoverage, StreamingEpochs,
                         ::testing::ValuesIn(HardCells()), SeedCellName);

// ---- Pin invariant: the model agrees with the evidence it was fit on. ----

/// At every subset SAMP sampled, the model's estimate of the subset's match
/// proportion must lie inside the Wilson interval (at sqrt(theta), the
/// per-requirement confidence) of that subset's own sample. Wilson, not the
/// plug-in p(1-p)/(s-1) interval, which has zero width at 200 of 200.
void ExpectPinsInsideWilson(const data::Workload& w, uint64_t seed) {
  const core::QualityRequirement req{0.9, 0.9, kTheta};
  core::SubsetPartition partition(&w, kSubsetSize);
  core::Oracle oracle(&w);
  core::PartialSamplingOptions options;
  options.seed = seed;
  auto outcome = core::PartialSamplingOptimizer(options).OptimizeDetailed(
      partition, req, &oracle);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  const double conf = std::sqrt(req.theta);
  for (size_t k = 0; k < partition.num_subsets(); ++k) {
    if (!outcome->sampled[k]) continue;
    const stats::Stratum& pin = outcome->strata[k];
    const stats::ProportionInterval iv =
        stats::WilsonInterval(pin.sample_positives, pin.sample_size, conf);
    const double mean = outcome->model->PosteriorMean(k);
    EXPECT_TRUE(mean >= iv.lo && mean <= iv.hi)
        << "subset " << k << ": mean " << mean << " outside [" << iv.lo
        << ", " << iv.hi << "] of " << pin.sample_positives << "/"
        << pin.sample_size;
  }
}

TEST(PinInvariantTest, AbModelMeansInsideTheirPinsWilsonInterval) {
  for (size_t s = 0; s < kRealizations; ++s) {
    SCOPED_TRACE("AB realization " + std::to_string(s));
    ExpectPinsInsideWilson(AbRealization(s), 5 + s);
  }
}

TEST(PinInvariantTest, DsModelMeansInsideTheirPinsWilsonInterval) {
  for (size_t s = 0; s < kRealizations; ++s) {
    SCOPED_TRACE("DS realization " + std::to_string(s));
    ExpectPinsInsideWilson(DsRealization(s), 5 + s);
  }
}

}  // namespace
}  // namespace humo
