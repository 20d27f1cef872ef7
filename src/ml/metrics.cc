#include "ml/metrics.h"

#include <cassert>

namespace humo::ml {

double ClassificationMetrics::precision() const {
  const size_t denom = true_positives + false_positives;
  if (denom == 0) return 1.0;
  return static_cast<double>(true_positives) / static_cast<double>(denom);
}

double ClassificationMetrics::recall() const {
  const size_t denom = true_positives + false_negatives;
  if (denom == 0) return 1.0;
  return static_cast<double>(true_positives) / static_cast<double>(denom);
}

double ClassificationMetrics::f1() const {
  const double p = precision(), r = recall();
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

ClassificationMetrics EvaluateLabels(const std::vector<int>& predicted,
                                     const std::vector<int>& truth) {
  assert(predicted.size() == truth.size());
  ClassificationMetrics m;
  for (size_t i = 0; i < predicted.size(); ++i) {
    const bool pred = predicted[i] == 1;
    const bool real = truth[i] == 1;
    if (pred && real) ++m.true_positives;
    else if (pred && !real) ++m.false_positives;
    else if (!pred && real) ++m.false_negatives;
    else ++m.true_negatives;
  }
  return m;
}

}  // namespace humo::ml
