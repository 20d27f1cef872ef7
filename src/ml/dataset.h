#pragma once

#include <cstddef>
#include <vector>

#include "common/random.h"

namespace humo::ml {

/// Dense feature vector.
using FeatureVector = std::vector<double>;

/// A labeled dataset for binary classification; labels are {0, 1}.
struct Dataset {
  std::vector<FeatureVector> features;
  std::vector<int> labels;

  size_t size() const { return features.size(); }
  size_t num_features() const {
    return features.empty() ? 0 : features[0].size();
  }

  void Add(FeatureVector f, int label);
};

/// Random stratified-ish split: shuffles indices and cuts at
/// `train_fraction`. Deterministic under the supplied rng.
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};
TrainTestSplit SplitDataset(const Dataset& data, double train_fraction,
                            Rng* rng);

}  // namespace humo::ml
