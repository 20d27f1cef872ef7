#include "stats/sampling.h"

#include <cassert>
#include <cmath>

namespace humo::stats {

double SampleGamma(Rng* rng, double shape) {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
    const double g = SampleGamma(rng, shape + 1.0);
    double u = rng->NextDouble();
    if (u <= 0.0) u = 1e-300;
    return g * std::pow(u, 1.0 / shape);
  }
  // Marsaglia & Tsang (2000).
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = rng->NextGaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng->NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v;
  }
}

double SampleBeta(Rng* rng, double a, double b) {
  assert(a > 0.0 && b > 0.0);
  const double ga = SampleGamma(rng, a);
  const double gb = SampleGamma(rng, b);
  const double denom = ga + gb;
  if (denom == 0.0) return 0.5;
  return ga / denom;
}

}  // namespace humo::stats
