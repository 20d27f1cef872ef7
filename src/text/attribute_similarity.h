#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace humo::text {

/// A single attribute comparator: given the two attribute values, returns a
/// similarity in [0,1].
using AttributeMetric =
    std::function<double(std::string_view, std::string_view)>;

/// One attribute's role in the aggregated pair similarity.
struct AttributeSpec {
  std::string name;
  AttributeMetric metric;
  /// Relative weight; the paper sets it to the number of distinct values the
  /// attribute takes in the dataset (more selective attributes weigh more).
  double weight = 1.0;
};

/// Weighted aggregation of attribute similarities (Christen 2012-style
/// fellegi-sunter scoring reduced to a convex combination):
///   sim(r1, r2) = sum_i w_i * m_i(a_i(r1), a_i(r2)) / sum_i w_i.
class AggregatedSimilarity {
 public:
  /// `specs` must be non-empty with positive total weight.
  explicit AggregatedSimilarity(std::vector<AttributeSpec> specs);

  /// Computes the aggregated similarity of two records given as parallel
  /// attribute-value vectors ordered like the specs. Missing (empty) values
  /// contribute 0 similarity for their attribute.
  double operator()(const std::vector<std::string>& r1,
                    const std::vector<std::string>& r2) const;

  /// Derives per-attribute weights from value diversity: weight_i = number
  /// of distinct values of attribute i in the union of both tables' columns.
  static std::vector<double> WeightsFromDistinctCounts(
      const std::vector<std::vector<std::string>>& records,
      size_t num_attributes);

 private:
  std::vector<AttributeSpec> specs_;
  double total_weight_;
};

}  // namespace humo::text
