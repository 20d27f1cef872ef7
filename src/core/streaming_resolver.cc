#include "core/streaming_resolver.h"

#include <cassert>

namespace humo::core {

StreamingResolver::StreamingResolver(StreamingOptions options,
                                     QualityRequirement req)
    : options_(options),
      req_(req),
      cumulative_(),
      partition_(&cumulative_, options_.subset_size),
      oracle_(&cumulative_),
      ctx_(&partition_, &oracle_) {}

EpochReport StreamingResolver::Ingest(data::Shard shard) {
  EpochReport report;
  report.epoch = epochs_ingested_++;
  report.pairs_arrived = shard.pairs.size();
  // An empty shard leaves every piece of index-keyed state untouched —
  // exactly what pure_append advertises.
  report.pure_append = true;
  landed_.clear();

  if (!shard.pairs.empty()) {
    const size_t old_n = cumulative_.size();
    // Number of old subsets whose [begin, end) content a pure tail append
    // provably preserves: every full-size subset except the last one built,
    // which absorbed the remainder and changes when pairs land after it.
    const size_t old_full = old_n / options_.subset_size;
    const size_t preserved = old_full >= 1 ? old_full - 1 : 0;

    // Where the shard's pairs landed in the merged order: a pure tail
    // append leaves every old index in place, an interior merge shifts the
    // old pairs up past the ones that landed before them.
    landed_ = cumulative_.MergeSorted(std::move(shard.pairs));
    report.pure_append = landed_.front() >= old_n;

    if (report.pure_append) {
      partition_.RebuildTail(preserved);
      ctx_.OnPartitionExtended(preserved);
    } else {
      partition_.Rebuild();
      ctx_.OnPartitionExtended(0);
      oracle_.MoveForInsertions(landed_);
    }
  }

  RefreshServing();
  report.pairs_total = serving_.pairs_total;
  report.num_subsets = serving_.num_subsets;
  report.evidence_pairs = serving_.evidence_pairs;
  report.has_estimate = serving_.has_estimate;
  report.est_precision = serving_.est_precision;
  report.est_recall = serving_.est_recall;
  return report;
}

Result<StreamingCertificate> StreamingResolver::Certify() {
  if (cumulative_.empty())
    return Status::InvalidArgument("streaming certify on an empty workload");

  std::vector<char> answered_before(cumulative_.size(), 0);
  for (size_t i = 0; i < cumulative_.size(); ++i)
    answered_before[i] = oracle_.WasAsked(i) ? 1 : 0;
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
    case StreamCertifier::kRisk: {
      RiskAwareOptions risk;
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
  // Both certifiers leave the model they certified with on the context.
  serving_model_ = ctx_.sampling_outcome();
  assert(serving_model_ != nullptr);

  // Certification bought fresh evidence; fold it into the serving state.
  RefreshServing();
  return cert;
}

const EpochReport& StreamingResolver::RefreshServing() {
  const size_t m = partition_.num_subsets();
  const size_t n = cumulative_.size();

  // The certificate's model was built over the partition of its epoch;
  // evaluate its prior at the current subsets' average similarities.
  std::vector<RatePrior> priors;
  if (serving_model_ != nullptr) {
    const GpSubsetModel& model = *serving_model_->model;
    std::vector<double> xs(m);
    for (size_t k = 0; k < m; ++k) xs[k] = partition_[k].avg_similarity;
    const std::vector<gp::Prediction> preds = model.gp().PredictBatch(xs);
    priors.resize(m);
    for (size_t k = 0; k < m; ++k) {
      const double size = static_cast<double>(partition_[k].size());
      const double scatter =
          SubsetScatterVariance(preds[k].mean, size, serving_model_->scatter);
      priors[k] = SubsetPrior(preds[k], model.variance_inflation(), scatter);
    }
  }
  const double mid =
      n == 0 ? 0.0
             : 0.5 * (cumulative_[0].similarity +
                      cumulative_[n - 1].similarity);

  provisional_labels_.assign(n, 0);
  double exp_tp = 0.0, exp_pos = 0.0, exp_true = 0.0;
  for (size_t k = 0; k < m; ++k) {
    const Subset& s = partition_[k];
    size_t answered = 0, positives = 0;
    for (size_t i = s.begin; i < s.end; ++i) {
      if (!oracle_.WasAsked(i)) continue;
      ++answered;
      positives += oracle_.CachedAnswer(i);
    }
    double q = s.avg_similarity >= mid ? 1.0 : 0.0;
    if (!priors.empty()) {
      const SubsetPosterior post = ConditionSubset(
          priors[k].mean, priors[k].variance, positives, answered, s.size());
      q = post.rate_mean;
    }
    const bool label_match = q >= 0.5;
    for (size_t i = s.begin; i < s.end; ++i) {
      provisional_labels_[i] = oracle_.WasAsked(i)
                                   ? (oracle_.CachedAnswer(i) ? 1 : 0)
                                   : (label_match ? 1 : 0);
    }
    const double pos = static_cast<double>(positives);
    const double unanswered = static_cast<double>(s.size() - answered);
    exp_tp += pos + (label_match ? unanswered * q : 0.0);
    exp_pos += pos + (label_match ? unanswered : 0.0);
    exp_true += pos + unanswered * q;
  }
  serving_ = EpochReport{};
  serving_.epoch = epochs_ingested_;
  serving_.pairs_total = n;
  serving_.num_subsets = m;
  serving_.evidence_pairs = total_inspections();
  serving_.has_estimate = serving_model_ != nullptr;
  serving_.est_precision = exp_pos > 0.0 ? exp_tp / exp_pos : 1.0;
  serving_.est_recall = exp_true > 0.0 ? exp_tp / exp_true : 1.0;
  return serving_;
}

bool StreamingResolver::PreloadEvidence(const data::InstancePair& pair,
                                        bool answer) {
  const size_t idx = cumulative_.IndexOfSorted(pair);
  if (idx >= cumulative_.size()) return false;
  oracle_.Preload(idx, answer);
  return true;
}

}  // namespace humo::core
