#pragma once

#include <cstddef>
#include <vector>

#include "data/workload.h"

namespace humo::core {

/// One unit subset D_k of the similarity-ordered workload: a half-open index
/// range [begin, end) into the sorted pair array, plus its average
/// similarity (the GP input v_k).
struct Subset {
  size_t begin = 0;
  size_t end = 0;
  double avg_similarity = 0.0;

  size_t size() const { return end - begin; }
};

/// Divides a similarity-sorted workload into consecutive subsets each
/// holding `subset_size` pairs (the paper fixes 200); the final subset
/// absorbs the remainder. This is the unit of movement for every optimizer.
class SubsetPartition {
 public:
  SubsetPartition() = default;

  /// `workload` must outlive the partition and be sorted by similarity.
  SubsetPartition(const data::Workload* workload, size_t subset_size);

  /// Recomputes boundaries and per-subset averages for the workload's
  /// current contents in one O(n) pass — the streaming path after an epoch
  /// merge inserted pairs throughout the sorted order. Equivalent (bitwise,
  /// including every avg_similarity) to constructing a fresh partition over
  /// the same workload, but reuses the subset storage.
  void Rebuild();

  /// Append fast path: the workload only GREW AT THE TAIL since the last
  /// (re)build, so every subset except the final remainder-absorbing one is
  /// unchanged — only subsets from index min(from_subset, last) on are
  /// recomputed, O(pairs in the recomputed tail) instead of O(n). Callers
  /// pass the number of subsets whose [begin, end) content is untouched
  /// (num_subsets() - 1 of the previous build, or 0 when there was none).
  /// Bitwise-equivalent to Rebuild().
  void RebuildTail(size_t from_subset);

  size_t num_subsets() const { return subsets_.size(); }
  const Subset& operator[](size_t k) const { return subsets_[k]; }
  const data::Workload& workload() const { return *workload_; }
  size_t subset_size() const { return subset_size_; }

  /// Total pairs across subsets [from, to] inclusive; 0 when from > to.
  size_t PairsInRange(size_t from, size_t to) const;

 private:
  const data::Workload* workload_ = nullptr;
  size_t subset_size_ = 0;
  std::vector<Subset> subsets_;
};

}  // namespace humo::core
