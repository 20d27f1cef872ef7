#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "data/workload.h"

namespace humo::entity {

/// One record across sources: `source` names the record table (0 = left
/// table, 1 = right table in a two-table workload; a dedup workload uses
/// one source for both sides), `id` indexes into that table. The pair
/// (source, id) is the identity the entity layer clusters — the same id in
/// two different sources is two different records.
struct RecordRef {
  uint32_t source = 0;
  uint32_t id = 0;
};

/// Packs a RecordRef into one u64 whose unsigned order equals the
/// (source, id) lexicographic order — the key every sorted structure of the
/// entity layer is built on.
inline uint64_t PackRecord(RecordRef r) {
  return (static_cast<uint64_t>(r.source) << 32) | r.id;
}
inline bool operator==(RecordRef a, RecordRef b) {
  return a.source == b.source && a.id == b.id;
}

/// How a pairwise workload's left/right id columns map onto record sources.
/// The default treats the workload as two-table ER (DBLP-Scholar, Abt-Buy):
/// left ids come from source 0, right ids from source 1. A dedup workload
/// over one table sets both to the same source, which makes self-pairs
/// (left id == right id) genuinely self-referential.
struct ClusteringOptions {
  uint32_t left_source = 0;
  uint32_t right_source = 1;
};

/// The record universe of a pairwise workload under one ClusteringOptions
/// view: the sorted distinct packed keys of both endpoint columns, and each
/// pair's endpoint positions in them (`(*record_keys)[left[i]]` is pair i's
/// left record). EntityClustering and the resolution service's carried
/// universe both build on it, so this is the one place that knows how
/// records are laid out. The keys are immutable and shared: every
/// clustering built from a universe points at the same array.
struct RecordUniverse {
  std::shared_ptr<const std::vector<uint64_t>> record_keys =
      std::make_shared<const std::vector<uint64_t>>();  // sorted, distinct
  std::vector<uint32_t> left;   // per pair, index into *record_keys
  std::vector<uint32_t> right;  // per pair, index into *record_keys
};

/// A source's ids are ranked through one table over [min id, max id] when
/// that span is at most this many times the endpoints the source holds (n
/// per column of a two-table view, 2n for a shared source).
inline constexpr uint64_t kDenseSpanPerEndpoint = 2;

/// The record universe of `grown`, built from `prior` (the universe before
/// one data::Workload::MergeSorted) instead of from scratch. `landed` is
/// what that merge returned: the ascending positions in `grown` of the
/// pairs it added, so the other positions hold prior's pairs in prior's
/// order. Only the landed pairs' keys are sorted and merged into prior's,
/// and every old pair's record indices are carried through one remap
/// pass. The result is the universe of `grown` field for field, a pure
/// function of its pair set; from an empty prior (a default
/// RecordUniverse, every pair landed) it is built from scratch.
RecordUniverse ExtendRecords(const RecordUniverse& prior,
                             const data::Workload& grown,
                             const std::vector<size_t>& landed,
                             const ClusteringOptions& options);

/// A transitively-consistent partition of the records of a pairwise
/// workload into ENTITIES: the connected components of the match-labeled
/// pair graph. This is the layer that converts certified pair labels into
/// the record clusters downstream consumers (task packing, multi-source
/// serving, set-based evaluation) operate on.
///
/// The representation is one entity id per record, and it is CANONICAL — a
/// pure function of the set {(record pair, label)}, independent of pair
/// order, construction path, and thread count:
///   * records are the sorted distinct packed (source, id) keys;
///   * entity ids are assigned by first appearance in that sorted record
///     order, so entity 0 contains the globally smallest record.
/// An entity's members are the records whose entity_of_record() entry
/// names it. Two clusterings over the same workload are therefore equal
/// (operator==, equal Checksum()) iff they induce the same partition.
/// FromLabels is a serial sequence of linear passes with no binary search.
/// When every source's id span is dense (kDenseSpanPerEndpoint), each
/// source marks its ids in one table over its span, and one ascending scan
/// per table numbers the marked ids; sources are numbered in key order, so
/// the keys come out sorted with no merge, and a shared source gets one
/// table over both columns. Each match edge's records are then two table
/// lookups, and no per-pair record arrays are built. Otherwise each column
/// is radix-sorted by id (only as many 11-bit passes as its largest id
/// needs), its distinct ids are ranked in one scan, and the two ranked
/// sides are merged once by packed key into a RecordUniverse. An
/// O(n alpha(n)) union-find joins the match edges, and the canonical
/// renumbering erases any dependence on union order. Each temporary is
/// freed as soon as its pass ends, and the union-find parent array becomes
/// the entity-id array. The record keys are the universe's shared array,
/// not a copy.
///
/// Immutable after construction: every accessor is const and touches only
/// frozen storage, so a clustering shared through a shared_ptr (see
/// core::ResolutionSnapshot) is safe to read from any number of threads.
class EntityClustering {
 public:
  EntityClustering() = default;

  /// Clusters the workload's records by the given pair labels (1 = match):
  /// entities are the connected components of the match edges. `labels`
  /// must be parallel to the workload's sorted order — a provisional
  /// labeling, a certified resolution, or the ground truth all fit.
  static EntityClustering FromLabels(const data::Workload& workload,
                                     const std::vector<int>& labels,
                                     const ClusteringOptions& options = {});

  /// Clusters by `labels` over a prebuilt universe (parallel to its
  /// left/right arrays), sharing its record-key array. Equal to FromLabels
  /// over the universe's workload; the universe stays intact, so a caller
  /// that carries one across calls pays only the union-find.
  static EntityClustering FromUniverse(const RecordUniverse& universe,
                                       const std::vector<int>& labels);

  /// Distinct records seen by the workload (both sides).
  size_t num_records() const { return record_keys_->size(); }
  /// Entities (clusters), singletons included.
  size_t num_entities() const { return num_entities_; }

  /// Entity of `record`, or nullopt when the record is not part of the
  /// workload. O(log n) binary search; wait-free (no locks, frozen data).
  std::optional<uint32_t> EntityOf(RecordRef record) const;

  /// Sorted distinct packed record keys (the record universe).
  const std::vector<uint64_t>& record_keys() const { return *record_keys_; }
  /// Entity id per record, parallel to record_keys().
  const std::vector<uint32_t>& entity_of_record() const { return entity_of_; }

  /// FNV-1a over 64-bit words, computed once at build: starting from
  /// h = 14695981039346656037, each word w folds in as
  /// h = (h ^ w) * 1099511628211 (mod 2^64). The words are num_records(),
  /// num_entities(), then record_keys()[r] and entity_of_record()[r] for
  /// r ascending. Equal for equal partitions over equal record universes.
  uint64_t Checksum() const { return checksum_; }

  /// Structural equality: same record universe, same partition.
  friend bool operator==(const EntityClustering& a, const EntityClustering& b) {
    return *a.record_keys_ == *b.record_keys_ && a.entity_of_ == b.entity_of_;
  }
  friend bool operator!=(const EntityClustering& a, const EntityClustering& b) {
    return !(a == b);
  }

  /// Index of `record` in record_keys(), or num_records() when absent.
  size_t RecordIndexOf(RecordRef record) const;

 private:
  /// Canonical ids and checksum from a union-find parent array whose every
  /// link points to a smaller record; the array becomes entity_of_.
  void BuildFrom(std::vector<uint32_t> parent);
  uint64_t ComputeChecksum() const;

  /// Sorted ascending; shared with the universe it was built from.
  std::shared_ptr<const std::vector<uint64_t>> record_keys_ =
      std::make_shared<const std::vector<uint64_t>>();
  std::vector<uint32_t> entity_of_;  // parallel to record_keys_
  size_t num_entities_ = 0;
  uint64_t checksum_ = 0;
};

}  // namespace humo::entity
