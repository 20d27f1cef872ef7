#include "ml/linear_svm.h"

#include <cassert>
#include <numeric>

namespace humo::ml {

/// L2 regularization strength (lambda of Pegasos).
constexpr double kLambda = 1e-4;

LinearSvm LinearSvm::Train(const Dataset& data, const SvmOptions& options) {
  assert(data.size() > 0);
  const size_t d = data.num_features();
  LinearSvm svm;
  svm.w_.assign(d, 0.0);
  svm.b_ = 0.0;

  Rng rng(options.seed);
  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), size_t{0});

  // Learning-rate warm start: eta = 1 / (lambda (t + t0)) with
  // t0 = 1/lambda caps the first steps at eta <= 1. Plain Pegasos
  // (eta_1 = 1/lambda) makes the unregularized bias blow up by ~1/lambda
  // on the first example and never recover within realistic epoch budgets.
  const double t0 = 1.0 / kLambda;
  size_t t = 0;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t i : order) {
      ++t;
      const double eta =
          1.0 / (kLambda * (static_cast<double>(t) + t0));
      const double y = data.labels[i] == 1 ? 1.0 : -1.0;
      const double cost_weight =
          data.labels[i] == 1 ? options.positive_weight : 1.0;
      const auto& x = data.features[i];
      double margin = svm.b_;
      for (size_t j = 0; j < d; ++j) margin += svm.w_[j] * x[j];
      margin *= y;

      // L2 shrink step applies regardless of the hinge being active.
      const double shrink = 1.0 - eta * kLambda;
      for (double& wj : svm.w_) wj *= shrink;
      if (margin < 1.0) {
        const double step = eta * cost_weight * y;
        for (size_t j = 0; j < d; ++j) svm.w_[j] += step * x[j];
        svm.b_ += step;  // unregularized bias
      }
    }
  }
  return svm;
}

double LinearSvm::DecisionValue(const FeatureVector& f) const {
  assert(f.size() == w_.size());
  double acc = b_;
  for (size_t j = 0; j < w_.size(); ++j) acc += w_[j] * f[j];
  return acc;
}

int LinearSvm::Predict(const FeatureVector& f) const {
  return DecisionValue(f) >= 0.0 ? 1 : 0;
}

}  // namespace humo::ml
