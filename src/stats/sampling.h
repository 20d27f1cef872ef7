#pragma once

#include "common/random.h"

namespace humo::stats {

/// Gamma(shape, scale=1) sample via Marsaglia-Tsang squeeze (shape >= 1) with
/// the Johnk-style boost for shape < 1.
double SampleGamma(Rng* rng, double shape);

/// Beta(a, b) sample as Ga/(Ga+Gb).
double SampleBeta(Rng* rng, double a, double b);

}  // namespace humo::stats
