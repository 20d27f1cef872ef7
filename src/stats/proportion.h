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

}  // namespace humo::stats
