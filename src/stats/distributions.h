#pragma once

namespace humo::stats {

/// Standard normal cumulative distribution function, via erfc for accuracy in
/// the tails.
double NormalCdf(double x);

/// Inverse standard normal CDF (quantile). `p` must be in (0,1).
/// Acklam's rational approximation refined by one Halley step; absolute error
/// below 1e-9 over (1e-300, 1-1e-16).
double NormalQuantile(double p);

/// Two-sided standard normal critical value z such that
/// P(-z < Z < z) = confidence. This is the Z_(1-theta) of Eq. 21 in the
/// paper. `confidence` must be in (0,1).
double NormalTwoSidedCritical(double confidence);

}  // namespace humo::stats
