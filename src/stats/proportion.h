#pragma once

#include <cstddef>

namespace humo::stats {

/// Two-sided confidence interval [lo, hi] for a binomial proportion.
struct ProportionInterval {
  double lo = 0.0;
  double hi = 1.0;
};

/// Wilson score interval — the recommended default for the ACTL comparator's
/// sampled precision estimates (well-behaved for small n and extreme p).
ProportionInterval WilsonInterval(size_t positives, size_t n,
                                  double confidence);

/// Equal-tailed Bayesian credible interval for a binomial proportion under a
/// Beta(prior_a, prior_b) prior: the (1-c)/2 and (1+c)/2 quantiles of the
/// posterior Beta(prior_a + positives, prior_b + n - positives). The default
/// uniform prior makes the interval proper even at n = 0 (where it is
/// exactly [(1-c)/2, (1+c)/2]); Jeffreys is prior_a = prior_b = 0.5. This is
/// the conservative evidence model the risk-aware optimizer uses for the
/// not-yet-inspected pairs of a partially inspected subset.
ProportionInterval BetaPosteriorInterval(size_t positives, size_t n,
                                         double confidence,
                                         double prior_a = 1.0,
                                         double prior_b = 1.0);

}  // namespace humo::stats
