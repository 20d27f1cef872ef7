#include "stats/dawid_skene.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace humo::stats {

/// Beta(1 + kSmoothing, 1 + kSmoothing) pseudo-counts on every worker's
/// sensitivity/specificity and on the class prior, so a worker with one
/// vote cannot be estimated as perfect or adversarial.
constexpr double kSmoothing = 1.0;
/// Bounds of the prior and every worker parameter before the E-step's logs.
constexpr double kFloor = 1e-6, kCeil = 1.0 - kFloor;

DawidSkeneResult RunDawidSkene(size_t num_items, size_t num_workers,
                               const std::vector<CrowdVote>& votes,
                               const DawidSkeneOptions& options) {
  DawidSkeneResult r;
  r.posterior.assign(num_items, 0.5);
  r.sensitivity.assign(num_workers, 0.5);
  r.specificity.assign(num_workers, 0.5);
  r.error_rate.assign(num_workers, 0.5);
  if (num_items == 0 || num_workers == 0 || votes.empty()) return r;

  // Initialization: per-item majority fraction (the aggregate every EM
  // refinement must at least match).
  std::vector<double> vote_sum(num_items, 0.0), vote_count(num_items, 0.0);
  for (const CrowdVote& v : votes) {
    assert(v.item < num_items && v.worker < num_workers);
    vote_sum[v.item] += v.answer != 0 ? 1.0 : 0.0;
    vote_count[v.item] += 1.0;
  }
  for (size_t i = 0; i < num_items; ++i) {
    if (vote_count[i] > 0.0) r.posterior[i] = vote_sum[i] / vote_count[i];
  }

  std::vector<double> sens_num(num_workers), sens_den(num_workers);
  std::vector<double> spec_num(num_workers), spec_den(num_workers);
  for (size_t it = 0; it < options.iterations; ++it) {
    // M-step: worker confusion parameters and the class prior from the
    // current soft labels, with kSmoothing pseudo-counts.
    std::fill(sens_num.begin(), sens_num.end(), kSmoothing);
    std::fill(sens_den.begin(), sens_den.end(), 2.0 * kSmoothing);
    std::fill(spec_num.begin(), spec_num.end(), kSmoothing);
    std::fill(spec_den.begin(), spec_den.end(), 2.0 * kSmoothing);
    double prior_num = kSmoothing, prior_den = 2.0 * kSmoothing;
    for (size_t i = 0; i < num_items; ++i) {
      if (vote_count[i] > 0.0) {
        prior_num += r.posterior[i];
        prior_den += 1.0;
      }
    }
    for (const CrowdVote& v : votes) {
      const double p = r.posterior[v.item];
      sens_den[v.worker] += p;
      spec_den[v.worker] += 1.0 - p;
      if (v.answer != 0) {
        sens_num[v.worker] += p;
      } else {
        spec_num[v.worker] += 1.0 - p;
      }
    }
    r.match_prior = std::clamp(prior_num / prior_den, kFloor, kCeil);
    for (size_t w = 0; w < num_workers; ++w) {
      r.sensitivity[w] = std::clamp(sens_num[w] / sens_den[w], kFloor, kCeil);
      r.specificity[w] = std::clamp(spec_num[w] / spec_den[w], kFloor, kCeil);
    }

    // E-step: per-item posterior as a log-space Bayes product over the
    // item's votes under the current worker parameters.
    std::vector<double> log_odds(
        num_items, std::log(r.match_prior / (1.0 - r.match_prior)));
    for (const CrowdVote& v : votes) {
      const double sens = r.sensitivity[v.worker];
      const double spec = r.specificity[v.worker];
      log_odds[v.item] += v.answer != 0
                              ? std::log(sens / (1.0 - spec))
                              : std::log((1.0 - sens) / spec);
    }
    for (size_t i = 0; i < num_items; ++i) {
      if (vote_count[i] > 0.0) {
        r.posterior[i] = 1.0 / (1.0 + std::exp(-log_odds[i]));
      }
    }
    ++r.iterations_run;
  }

  for (size_t w = 0; w < num_workers; ++w) {
    r.error_rate[w] =
        0.5 * ((1.0 - r.sensitivity[w]) + (1.0 - r.specificity[w]));
  }
  return r;
}

}  // namespace humo::stats
