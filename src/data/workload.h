#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace humo::data {

class MmapColumns;

/// One instance pair d_i of an ER workload: a machine-metric value (pair
/// similarity, SVM distance mapped to [0,1], or match probability) plus the
/// hidden ground-truth label. The ground truth is only ever read through the
/// core::Oracle so that human cost is accounted for.
///
/// This is the VALUE type of the workload API. Since the SoA overhaul the
/// Workload does not store InstancePair structs; it stores one contiguous
/// column per field and materializes an InstancePair on access.
struct InstancePair {
  /// Identifiers of the two records (indices into source tables); optional
  /// provenance, unused by the optimizers.
  uint32_t left_id = 0;
  uint32_t right_id = 0;
  /// Machine metric value in [0,1]; the workload is kept sorted ascending.
  double similarity = 0.0;
  /// Hidden ground truth: true when the two records refer to the same
  /// real-world entity.
  bool is_match = false;
};

/// Strict ordering every sorted workload obeys: ascending similarity with
/// the (left_id, right_id) pair breaking ties. A total order whenever no two
/// pairs share similarity AND both ids, which makes the sorted sequence
/// unique — the property the streaming merge path relies on to reproduce a
/// from-scratch sort exactly.
bool PairLess(const InstancePair& a, const InstancePair& b);

/// An ER workload D = {d_1..d_n}, sorted ascending by similarity.
///
/// Storage is structure-of-arrays: four contiguous columns (similarity,
/// left id, right id, label), one element per pair. The hot paths of the
/// million-pair regime — partition rebuilds summing similarities, oracle
/// label reads, streaming merges — touch exactly the column they need
/// instead of striding over 32-byte structs, and the similarity column can
/// be handed to vectorized/parallel consumers as a raw `const double*`.
/// The pair-level API (operator[], Add, construction from
/// std::vector<InstancePair>) is unchanged except that operator[] returns
/// the pair BY VALUE.
///
/// A workload is either RAM-backed (owns its four column vectors — every
/// constructor below) or MMAP-BACKED (FromMmap: columns served straight
/// from a read-only MmapColumns file mapping, shared, never copied into
/// RAM). All reads go through cached raw-pointer views so the two backings
/// are indistinguishable on the hot paths; mutators and the vector column
/// accessors require a RAM backing (asserted).
class Workload {
 public:
  Workload() = default;
  explicit Workload(std::vector<InstancePair> pairs);

  Workload(const Workload& other);
  Workload(Workload&& other) noexcept;
  /// No caller assigns a copy; copy-construct or move-assign instead.
  Workload& operator=(const Workload& other) = delete;
  Workload& operator=(Workload&& other) noexcept;

  /// Sorts pairs ascending by similarity (id pair breaks ties
  /// deterministically — see PairLess). Runs an O(n) LSD radix sort over
  /// the similarity key bits (plus an O(t log t) cleanup per run of t
  /// equal-similarity pairs, t being 1 almost everywhere), not an
  /// O(n log n) comparison sort; because PairLess is a total order on
  /// distinct pairs the resulting sequence is identical to what any
  /// correct sort produces.
  void SortBySimilarity();

  /// Merges `incoming` (arbitrary order) into this already-sorted workload:
  /// the incoming block is sorted on its own and then merged column-wise
  /// against the existing pairs (O(n + m)) under PairLess — the result is
  /// exactly what SortBySimilarity would produce on the concatenation,
  /// without re-sorting the prefix. This is the epoch-ingest path of the
  /// streaming resolver. Returns where the incoming pairs landed: their
  /// ascending positions in the merged workload (empty when `incoming` is).
  /// When the first landing is at or past the old size the merge was a
  /// pure tail append and every pre-existing index is unchanged; otherwise
  /// the pair at old index i moved up by the number of landings before it,
  /// which is how index-keyed state (oracle answers) follows its pairs.
  std::vector<size_t> MergeSorted(std::vector<InstancePair> incoming);

  size_t size() const { return num_pairs_; }
  bool empty() const { return num_pairs_ == 0; }

  /// Materializes pair `i` from the columns. Returned by value: callers
  /// must not retain references/pointers across statements (the usual
  /// `const auto& p = w[i];` still works through lifetime extension).
  InstancePair operator[](size_t i) const {
    return {left_data_[i], right_data_[i], sim_data_[i], label_data_[i] != 0};
  }

  /// Contiguous column views, valid for BOTH backings — the accessors every
  /// hot path (partition rebuilds, oracle reads, evaluation) must use.
  /// Non-null whenever size() > 0.
  const double* similarity_data() const { return sim_data_; }
  const uint32_t* left_id_data() const { return left_data_; }
  const uint32_t* right_id_data() const { return right_data_; }
  /// Ground truth, 1 = match. Only the Oracle and evaluation code may read
  /// it, same contract as InstancePair::is_match.
  const uint8_t* label_data() const { return label_data_; }

  /// True when the columns live in a read-only file mapping (FromMmap) —
  /// mutators and the vector accessors below are unavailable.
  bool mmap_backed() const { return mmap_ != nullptr; }

  /// Contiguous similarity column (ascending once sorted). RAM-backed only.
  const std::vector<double>& similarities() const {
    assert(!mmap_backed());
    return similarities_;
  }
  /// Contiguous record-id columns (provenance). RAM-backed only.
  const std::vector<uint32_t>& left_ids() const {
    assert(!mmap_backed());
    return left_ids_;
  }
  const std::vector<uint32_t>& right_ids() const {
    assert(!mmap_backed());
    return right_ids_;
  }
  /// Contiguous ground-truth column, 1 = match (see label_data()).
  /// RAM-backed only.
  const std::vector<uint8_t>& match_labels() const {
    assert(!mmap_backed());
    return labels_;
  }

  double Similarity(size_t i) const { return sim_data_[i]; }
  bool IsMatch(size_t i) const { return label_data_[i] != 0; }

  /// AoS copy of every pair, in order — for callers that genuinely need
  /// the struct layout (serialization, external interop). O(n) and O(n)
  /// extra memory; hot paths should use the column accessors instead.
  std::vector<InstancePair> MaterializePairs() const;

  /// Index of the pair equal to `pair` (same similarity AND both ids) in
  /// this sorted workload, or size() when absent. Binary search over the
  /// similarity column, O(log n) — no AoS materialization.
  size_t IndexOfSorted(const InstancePair& pair) const;

  /// Total ground-truth matching pairs (evaluation only — optimizers must
  /// not call this).
  size_t CountMatches() const;

  /// Ground-truth labels vector (1 = match), for evaluation.
  std::vector<int> GroundTruthLabels() const;

  /// Appends a pair (invalidates sortedness until SortBySimilarity).
  void Add(InstancePair pair);

  /// Builds a workload directly from columns (all four the same length),
  /// then sorts. The zero-copy construction path for generators and
  /// blockers that already produce columnar output.
  static Workload FromColumns(std::vector<uint32_t> left_ids,
                              std::vector<uint32_t> right_ids,
                              std::vector<double> similarities,
                              std::vector<uint8_t> labels);

  /// Wraps an already-sorted columnar file mapping (see data/mmap_columns.h)
  /// as a read-only workload. Zero-copy: reads are served by the kernel's
  /// page cache, so resolving a 10M-pair workload needs RAM for the
  /// optimizer state only, not the columns. The mapping is shared — copies
  /// of this workload stay cheap and views never dangle.
  static Workload FromMmap(std::shared_ptr<MmapColumns> columns);

 private:
  /// True when row a orders strictly before row b under PairLess.
  bool RowLess(size_t a, size_t b) const;
  /// Applies `perm` (new position i takes old row perm[i]) to all columns.
  void ApplyPermutation(const std::vector<size_t>& perm);
  /// Re-points the raw column views at the current backing (vectors or
  /// mapping). Every mutation and every copy/move ends with this.
  void SyncViews();

  std::vector<double> similarities_;
  std::vector<uint32_t> left_ids_;
  std::vector<uint32_t> right_ids_;
  std::vector<uint8_t> labels_;
  /// Non-null for mmap-backed workloads; keeps the mapping alive.
  std::shared_ptr<MmapColumns> mmap_;

  /// Cached views over the active backing (see SyncViews).
  const double* sim_data_ = nullptr;
  const uint32_t* left_data_ = nullptr;
  const uint32_t* right_data_ = nullptr;
  const uint8_t* label_data_ = nullptr;
  size_t num_pairs_ = 0;
};

/// Summary statistics of a workload, for dataset tables in docs/benches.
struct WorkloadSummary {
  size_t num_pairs = 0;
  size_t num_matches = 0;
  double min_similarity = 0.0;
  double max_similarity = 0.0;
  double match_fraction = 0.0;
};
WorkloadSummary Summarize(const Workload& w);

}  // namespace humo::data
