#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/workload.h"

namespace humo::data {

/// How a stream delivers a workload's pairs across shards. The split is a
/// pure function of (base workload, options) — re-iterating a stream, or
/// building two streams with the same options, yields identical shards.
enum class ArrivalOrder {
  /// Pairs are assigned to shards by a seeded uniform permutation: every
  /// shard is a random cross-section of the similarity range. The default,
  /// and the hardest case for the streaming resolver — every epoch's merge
  /// inserts pairs throughout the sorted order, so no index-keyed state
  /// survives the epoch.
  kShuffled,
  /// Shard e is the e-th contiguous slice of the similarity-sorted base:
  /// every epoch merge is a pure tail append, the case where the streaming
  /// resolver's carry-over (oracle answers, subset statistics, GP
  /// warm-start state) survives intact. Models a source that emits
  /// candidate pairs in machine-metric order (e.g. a blocker draining its
  /// queue best-first).
  kSimilarityAscending,
};

struct WorkloadStreamOptions {
  size_t num_shards = 4;
  ArrivalOrder order = ArrivalOrder::kShuffled;
  /// Base seed of the per-shard RNG streams. Shard e's arrival order is
  /// shuffled by Rng::Stream(seed, e) — an independent deterministic stream
  /// per shard, so shards can be generated in any order (or lazily) and
  /// still deliver identical pair sequences.
  uint64_t seed = 777;
};

/// One epoch's arrival: a batch of instance pairs in arrival order.
struct Shard {
  size_t epoch = 0;
  std::vector<InstancePair> pairs;
};

/// Deterministic shard iterator over a workload: splits the base into
/// `num_shards` epochs under the chosen arrival order. The shards partition
/// the base exactly — concatenating them (in any order) and sorting yields
/// the base workload back, which is what makes "streaming result ==
/// one-shot result on the concatenation" a testable identity.
class WorkloadStream {
 public:
  /// `base` must outlive the stream and be sorted by similarity.
  WorkloadStream(const Workload* base, WorkloadStreamOptions options);

  size_t num_shards() const { return options_.num_shards; }

  /// True while epochs remain; fills `out` with the next shard.
  bool Next(Shard* out);

  /// Restarts iteration from epoch 0.
  void Reset() { next_epoch_ = 0; }

  /// The shard a given epoch delivers, independent of iteration state.
  Shard ShardAt(size_t epoch) const;

 private:
  const Workload* base_;
  WorkloadStreamOptions options_;
  /// assignment_[e] lists base-pair indices of shard e, in arrival order.
  std::vector<std::vector<size_t>> assignment_;
  size_t next_epoch_ = 0;
};

}  // namespace humo::data
