#include "core/streaming_resolver.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace humo::core {
namespace {

/// Minimum pinned subsets before a provisional GP is fitted.
constexpr size_t kProvisionalMinPins = 3;
/// Minimum carried answers inside a subset before it pins the provisional
/// GP (fully enumerated subsets always qualify). Partially covered subsets
/// carry their sampling variance as observation noise.
constexpr size_t kProvisionalPinMinSamples = 30;

/// Grid fit over provisional pins, under the same gap guard as the SAMP
/// certification fit (gp::GapGuardedGrid) so the serving model and the
/// certification model can never diverge on the length-scale floor.
Result<gp::GpRegression> FitProvisionalGp(const std::vector<double>& xs,
                                          const std::vector<double>& ys,
                                          std::vector<double> noise,
                                          const PartialSamplingOptions& sopt) {
  gp::GpOptions options;
  options.noise_variance = kGpNoiseFloor;
  options.center_mean = true;
  return gp::SelectGpByMarginalLikelihood(xs, ys, gp::GapGuardedGrid(xs),
                                          sopt.kernel_family, options,
                                          std::move(noise));
}

double ClampUnit(double v) { return std::min(1.0, std::max(0.0, v)); }

}  // namespace

StreamingResolver::StreamingResolver(StreamingOptions options,
                                     QualityRequirement req)
    : options_(options),
      req_(req),
      cumulative_(),
      partition_(&cumulative_, options_.subset_size),
      oracle_(&cumulative_),
      ctx_(&partition_, &oracle_) {}

const EpochReport& StreamingResolver::Ingest(data::Shard shard) {
  EpochReport report;
  report.epoch = epochs_ingested_++;
  report.pairs_arrived = shard.pairs.size();
  // An empty shard leaves every piece of index-keyed state untouched —
  // exactly what pure_append advertises.
  report.pure_append = true;

  if (!shard.pairs.empty()) {
    const size_t old_n = cumulative_.size();
    // Number of old subsets whose [begin, end) content a pure tail append
    // provably preserves: every full-size subset except the last one built,
    // which absorbed the remainder and changes when pairs land after it.
    const size_t old_full = old_n / options_.subset_size;
    const size_t preserved = old_full >= 1 ? old_full - 1 : 0;

    const auto min_it = std::min_element(shard.pairs.begin(),
                                         shard.pairs.end(), data::PairLess);
    const bool will_append =
        old_n == 0 || !data::PairLess(*min_it, cumulative_[old_n - 1]);

    // An interior merge shifts pair indices, so the oracle's index-keyed
    // answers must be re-keyed. Snapshot them against the OLD order first.
    struct Evidence {
      data::InstancePair pair;
      bool answer;
    };
    std::vector<Evidence> evidence;
    if (!will_append) {
      const auto snapshot = oracle_.AnswerSnapshot();
      evidence.reserve(snapshot.size());
      for (const auto& [index, answer] : snapshot)
        evidence.push_back({cumulative_[index], answer});
    }

    const bool pure_append = cumulative_.MergeSorted(std::move(shard.pairs));
    assert(pure_append == will_append);
    report.pure_append = pure_append;

    if (pure_append) {
      partition_.RebuildTail(preserved);
      ctx_.OnPartitionExtended(preserved);
      // Pair indices are unchanged: the oracle's answers stay valid as-is.
    } else {
      partition_.Rebuild();
      ctx_.OnPartitionExtended(0);
      retired_requests_ += oracle_.total_requests();
      retired_duplicates_ += oracle_.duplicate_requests();
      oracle_.Reset();
      for (const Evidence& e : evidence)
        oracle_.Preload(IndexOf(e.pair), e.answer);
    }
  }

  RefreshProvisional(&report);
  report.pairs_total = cumulative_.size();
  report.num_subsets = partition_.num_subsets();
  report.evidence_pairs = total_inspections();
  reports_.push_back(report);
  return reports_.back();
}

Result<StreamingCertificate> StreamingResolver::Certify() {
  if (cumulative_.empty())
    return Status::InvalidArgument("streaming certify on an empty workload");

  std::vector<char> answered_before(cumulative_.size(), 0);
  for (const auto& [index, answer] : oracle_.AnswerSnapshot()) {
    (void)answer;
    answered_before[index] = 1;
  }
  const size_t cost_before = oracle_.cost();

  StreamingCertificate cert;
  cert.req = req_;
  cert.epoch = epochs_ingested_;
  switch (options_.certifier) {
    case StreamCertifier::kSamp: {
      PartialSamplingOptimizer samp(options_.sampling);
      HUMO_ASSIGN_OR_RETURN(HumoSolution sol, samp.Optimize(&ctx_, req_));
      cert.solution = sol;
      cert.resolution = ApplySolution(partition_, sol, &oracle_);
      cert.certified = true;
      break;
    }
    case StreamCertifier::kHybr: {
      HybridOptions hybrid = options_.hybrid;
      hybrid.sampling = options_.sampling;
      HUMO_ASSIGN_OR_RETURN(HumoSolution sol,
                            HybridOptimizer(hybrid).Optimize(&ctx_, req_));
      cert.solution = sol;
      cert.resolution = ApplySolution(partition_, sol, &oracle_);
      cert.certified = true;
      break;
    }
    case StreamCertifier::kRisk: {
      RiskAwareOptions risk = options_.risk;
      risk.sampling = options_.sampling;
      HUMO_ASSIGN_OR_RETURN(RiskAwareOutcome out,
                            RiskAwareOptimizer(risk).Resolve(&ctx_, req_));
      cert.solution = out.solution;
      cert.resolution = out.resolution;
      cert.certified = out.certified;
      cert.precision_lb = out.precision_lb;
      cert.recall_lb = out.recall_lb;
      break;
    }
  }

  cert.fresh_inspections = oracle_.cost() - cost_before;
  if (!cert.solution.empty && partition_.num_subsets() > 0) {
    const size_t lo = partition_[cert.solution.h_lo].begin;
    const size_t hi = partition_[cert.solution.h_hi].end;
    for (size_t i = lo; i < hi; ++i)
      cert.reused_answers += answered_before[i] != 0;
  }
  cert.total_inspections = total_inspections();
  last_certificate_ = cert;

  // Certification bought fresh evidence; fold it into the serving state.
  RefreshProvisional(nullptr);
  return cert;
}

void StreamingResolver::RefreshProvisional(EpochReport* report) {
  const size_t m = partition_.num_subsets();
  const size_t n = cumulative_.size();

  evidence_strata_.assign(m, stats::Stratum{});
  for (size_t k = 0; k < m; ++k) {
    const Subset& s = partition_[k];
    stats::Stratum st;
    st.population = s.size();
    for (size_t i = s.begin; i < s.end; ++i) {
      if (!oracle_.WasAsked(i)) continue;
      ++st.sample_size;
      st.sample_positives += oracle_.CachedAnswer(i);
    }
    evidence_strata_[k] = st;
  }

  // Carried pins stay valid only while their subsets' contents AND
  // coverage are untouched (pure tail appends with no new answers inside):
  // same input, same population, same sample count, same proportion.
  // Anything else voids the model — an interior merge or fresh inspections
  // inside a pinned subset force a grid refit over the new pin set.
  bool valid = true;
  for (const ProvPin& p : prov_pins_) {
    if (p.subset >= m) {
      valid = false;
      break;
    }
    const stats::Stratum& st = evidence_strata_[p.subset];
    if (st.population != p.population || st.sample_size != p.sample_size ||
        partition_[p.subset].avg_similarity != p.x || st.proportion() != p.y) {
      valid = false;
      break;
    }
  }
  if (!valid) {
    prov_pins_.clear();
    prov_model_.reset();
  }

  std::vector<char> pinned(m, 0);
  for (const ProvPin& p : prov_pins_) pinned[p.subset] = 1;
  std::vector<ProvPin> fresh;
  for (size_t k = 0; k < m; ++k) {
    const stats::Stratum& st = evidence_strata_[k];
    if (pinned[k] != 0 || st.population == 0) continue;
    if (!st.fully_enumerated() && st.sample_size < kProvisionalPinMinSamples)
      continue;
    fresh.push_back({k, partition_[k].avg_similarity, st.proportion(),
                     st.proportion_variance(), st.population,
                     st.sample_size});
  }

  bool warm_extended = false;
  if (!fresh.empty() &&
      prov_pins_.size() + fresh.size() >= kProvisionalMinPins) {
    if (prov_model_.has_value()) {
      // Only new pins arrived on top of an intact training set: extend the
      // factor by the appended rows instead of re-running the grid.
      std::vector<double> xs, ys, noise;
      xs.reserve(fresh.size());
      ys.reserve(fresh.size());
      noise.reserve(fresh.size());
      for (const ProvPin& p : fresh) {
        xs.push_back(p.x);
        ys.push_back(p.y);
        noise.push_back(p.noise);
      }
      Result<gp::GpRegression> extended =
          prov_model_->ExtendedWith(xs, ys, noise);
      if (extended.ok()) {
        prov_model_ = std::move(*extended);
        prov_pins_.insert(prov_pins_.end(), fresh.begin(), fresh.end());
        warm_extended = true;
        ++prov_gp_extensions_;
      } else {
        prov_model_.reset();
      }
    }
    if (!prov_model_.has_value()) {
      std::vector<ProvPin> all = prov_pins_;
      all.insert(all.end(), fresh.begin(), fresh.end());
      std::vector<double> xs, ys, noise;
      xs.reserve(all.size());
      ys.reserve(all.size());
      noise.reserve(all.size());
      for (const ProvPin& p : all) {
        xs.push_back(p.x);
        ys.push_back(p.y);
        noise.push_back(p.noise);
      }
      Result<gp::GpRegression> fit =
          FitProvisionalGp(xs, ys, std::move(noise), options_.sampling);
      if (fit.ok()) {
        prov_model_ = std::move(*fit);
        prov_pins_ = std::move(all);
        ++prov_gp_grid_fits_;
      }
      // On failure the pins stay unpinned; a later epoch retries with more
      // evidence.
    }
  }

  // Provisional labeling + plug-in quality estimates.
  provisional_labels_.assign(n, 0);
  std::vector<gp::Prediction> preds;
  if (prov_model_.has_value()) {
    std::vector<double> xs(m);
    for (size_t k = 0; k < m; ++k) xs[k] = partition_[k].avg_similarity;
    preds = prov_model_->PredictBatch(xs);
  }
  const double mid =
      n == 0 ? 0.0
             : 0.5 * (cumulative_[0].similarity +
                      cumulative_[n - 1].similarity);
  double exp_tp = 0.0, exp_pos = 0.0, exp_true = 0.0;
  for (size_t k = 0; k < m; ++k) {
    const Subset& s = partition_[k];
    const stats::Stratum& st = evidence_strata_[k];
    const double q = prov_model_.has_value()
                         ? ClampUnit(preds[k].mean)
                         : (s.avg_similarity >= mid ? 1.0 : 0.0);
    const bool label_match = q >= 0.5;
    for (size_t i = s.begin; i < s.end; ++i) {
      provisional_labels_[i] = oracle_.WasAsked(i)
                                   ? (oracle_.CachedAnswer(i) ? 1 : 0)
                                   : (label_match ? 1 : 0);
    }
    const double answered_pos = static_cast<double>(st.sample_positives);
    const double unanswered =
        static_cast<double>(st.population - st.sample_size);
    exp_tp += answered_pos + (label_match ? unanswered * q : 0.0);
    exp_pos += answered_pos + (label_match ? unanswered : 0.0);
    exp_true += answered_pos + unanswered * q;
  }
  if (report != nullptr) {
    report->gp_warm_extended = warm_extended;
    report->has_estimate = prov_model_.has_value();
    report->est_precision = exp_pos > 0.0 ? exp_tp / exp_pos : 1.0;
    report->est_recall = exp_true > 0.0 ? exp_tp / exp_true : 1.0;
  }
}

bool StreamingResolver::PreloadEvidence(const data::InstancePair& pair,
                                        bool answer) {
  const size_t idx = cumulative_.IndexOfSorted(pair);
  if (idx >= cumulative_.size()) return false;
  oracle_.Preload(idx, answer);
  return true;
}

EpochReport StreamingResolver::RefreshServing() {
  EpochReport report;
  report.epoch = epochs_ingested_;
  RefreshProvisional(&report);
  report.pairs_total = cumulative_.size();
  report.num_subsets = partition_.num_subsets();
  report.evidence_pairs = total_inspections();
  return report;
}

size_t StreamingResolver::IndexOf(const data::InstancePair& pair) const {
  // Column-based binary search over the sorted similarity column — no AoS
  // materialization of the cumulative workload.
  const size_t idx = cumulative_.IndexOfSorted(pair);
  if (idx < cumulative_.size() && cumulative_.IsMatch(idx) == pair.is_match) {
    return idx;
  }
  // A miss means a merge dropped or mutated a pair the human already
  // answered — re-keying the answer anywhere else would seed a WRONG
  // verdict onto an arbitrary pair and silently corrupt every later
  // certificate. Fail loudly, including in release builds.
  std::fprintf(stderr,
               "StreamingResolver: evidence pair (%u, %u, sim=%.17g) missing "
               "from the cumulative workload after a merge\n",
               pair.left_id, pair.right_id, pair.similarity);
  std::abort();
}

}  // namespace humo::core
