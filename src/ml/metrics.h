#pragma once

#include <cstddef>
#include <vector>

namespace humo::ml {

/// Binary-classification confusion counts and the derived quality metrics
/// used throughout the paper (Eq. 1-2).
struct ClassificationMetrics {
  size_t true_positives = 0;
  size_t false_positives = 0;
  size_t true_negatives = 0;
  size_t false_negatives = 0;

  /// |Dtp| / (|Dtp| + |Dfp|); defined as 1 when nothing was labeled match
  /// (vacuous truth — no false positives possible).
  double precision() const;
  /// |Dtp| / (|Dtp| + |Dfn|); defined as 1 when there are no actual matches.
  double recall() const;
  /// Harmonic mean of precision and recall; 0 when both are 0.
  double f1() const;
};

/// Computes the confusion counts of predicted vs ground-truth labels
/// (both in {0,1}).
ClassificationMetrics EvaluateLabels(const std::vector<int>& predicted,
                                     const std::vector<int>& truth);

}  // namespace humo::ml
