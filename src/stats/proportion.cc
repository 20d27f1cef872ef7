#include "stats/proportion.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/distributions.h"

namespace humo::stats {
namespace {

double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

/// Solves I_x(a, b) = target for x by bisection; the regularized incomplete
/// beta is monotone increasing in x.
double BetaQuantile(double a, double b, double target) {
  double lo = 0.0, hi = 1.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (RegularizedIncompleteBeta(a, b, mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

ProportionInterval WilsonInterval(size_t positives, size_t n,
                                  double confidence) {
  assert(positives <= n);
  if (n == 0) return {0.0, 1.0};
  const double p = static_cast<double>(positives) / static_cast<double>(n);
  const double z = NormalTwoSidedCritical(confidence);
  const double z2 = z * z;
  const double nn = static_cast<double>(n);
  const double denom = 1.0 + z2 / nn;
  const double center = (p + z2 / (2.0 * nn)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) / denom;
  ProportionInterval iv{Clamp01(center - half), Clamp01(center + half)};
  // Exact endpoints at the degenerate counts (kill roundoff residue).
  if (positives == 0) iv.lo = 0.0;
  if (positives == n) iv.hi = 1.0;
  return iv;
}

ProportionInterval BetaPosteriorInterval(size_t positives, size_t n,
                                         double confidence, double prior_a,
                                         double prior_b) {
  assert(positives <= n);
  assert(prior_a > 0.0 && prior_b > 0.0);
  const double a = prior_a + static_cast<double>(positives);
  const double b = prior_b + static_cast<double>(n - positives);
  const double tail = (1.0 - confidence) / 2.0;
  return {BetaQuantile(a, b, tail), BetaQuantile(a, b, 1.0 - tail)};
}

}  // namespace humo::stats
