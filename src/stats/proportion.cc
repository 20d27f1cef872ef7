#include "stats/proportion.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/distributions.h"

namespace humo::stats {
namespace {

double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

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

}  // namespace humo::stats
