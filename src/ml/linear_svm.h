#pragma once

#include <vector>

#include "common/random.h"
#include "ml/dataset.h"

namespace humo::ml {

/// Hyperparameters for the Pegasos-style SGD trainer.
struct SvmOptions {
  /// L2 regularization strength (lambda of Pegasos).
  double lambda = 1e-4;
  /// Number of SGD epochs over the (shuffled) training set.
  size_t epochs = 30;
  /// Weight applied to positive examples' losses to counter class imbalance
  /// (ER workloads are heavily skewed toward unmatches). 1.0 = unweighted.
  double positive_weight = 1.0;
  uint64_t seed = 42;
};

/// Linear soft-margin SVM trained by Pegasos (primal sub-gradient descent on
/// the hinge loss with L2 regularization). Used in two roles mirroring the
/// paper: (a) the machine-only reference classifier of Table I, and (b) a
/// machine metric for HUMO — the signed distance to the separating plane.
class LinearSvm {
 public:
  /// Trains on the dataset; labels must be {0,1} (mapped to -1/+1
  /// internally).
  static LinearSvm Train(const Dataset& data, const SvmOptions& options = {});

  /// Signed decision value w.x + b (positive => class 1 side).
  double DecisionValue(const FeatureVector& f) const;

  /// Hard prediction in {0,1}.
  int Predict(const FeatureVector& f) const;

  const std::vector<double>& weights() const { return w_; }
  double bias() const { return b_; }

 private:
  std::vector<double> w_;
  double b_ = 0.0;
};

}  // namespace humo::ml
