#include "data/logistic_generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/random.h"
#include "stats/sampling.h"

namespace humo::data {

double LogisticMatchProportion(double v, double tau, double ceiling) {
  return ceiling / (1.0 + std::exp(-tau * (v - kLogisticMidpoint)));
}

Workload GenerateLogisticWorkload(const LogisticGeneratorOptions& options) {
  assert(options.pairs_per_subset > 0);
  assert(options.num_pairs >= options.pairs_per_subset);
  Rng rng(options.seed);
  const size_t m = options.num_pairs / options.pairs_per_subset;
  std::vector<InstancePair> pairs;
  pairs.reserve(options.num_pairs);

  uint32_t id = 0;
  for (size_t k = 0; k < m; ++k) {
    // Subset k covers similarity band [k/m, (k+1)/m).
    const double band_lo = static_cast<double>(k) / static_cast<double>(m);
    const double band_width = 1.0 / static_cast<double>(m);
    const double v_center = band_lo + 0.5 * band_width;
    double proportion =
        LogisticMatchProportion(v_center, options.tau, options.ceiling);
    if (options.sigma > 0.0) {
      proportion += rng.NextGaussian(0.0, options.sigma);
    }
    proportion = std::clamp(proportion, 0.0, 1.0);

    // Exactly round(p * n) matches in the subset; positions randomized.
    const size_t n_sub = options.pairs_per_subset;
    const size_t n_match = static_cast<size_t>(
        std::llround(proportion * static_cast<double>(n_sub)));
    std::vector<bool> is_match(n_sub, false);
    std::fill(is_match.begin(),
              is_match.begin() + static_cast<long>(std::min(n_match, n_sub)),
              true);
    rng.Shuffle(&is_match);

    for (size_t i = 0; i < n_sub; ++i) {
      InstancePair p;
      p.left_id = id;
      p.right_id = id;
      ++id;
      p.similarity = band_lo + band_width * rng.NextDouble();
      p.is_match = is_match[i];
      pairs.push_back(p);
    }
  }
  return Workload(std::move(pairs));
}

}  // namespace humo::data
