#include "ml/dataset.h"

#include <cassert>
#include <numeric>

namespace humo::ml {

void Dataset::Add(FeatureVector f, int label) {
  assert(label == 0 || label == 1);
  assert(features.empty() || f.size() == features[0].size());
  features.push_back(std::move(f));
  labels.push_back(label);
}

TrainTestSplit SplitDataset(const Dataset& data, double train_fraction,
                            Rng* rng) {
  assert(train_fraction >= 0.0 && train_fraction <= 1.0);
  std::vector<size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  rng->Shuffle(&idx);
  const size_t n_train =
      static_cast<size_t>(train_fraction * static_cast<double>(data.size()));
  TrainTestSplit split;
  for (size_t i = 0; i < idx.size(); ++i) {
    Dataset& dst = (i < n_train) ? split.train : split.test;
    dst.Add(data.features[idx[i]], data.labels[idx[i]]);
  }
  return split;
}

}  // namespace humo::ml
