#include "data/workload_stream.h"

#include <cassert>
#include <numeric>

#include "common/random.h"

namespace humo::data {

WorkloadStream::WorkloadStream(const Workload* base,
                               WorkloadStreamOptions options)
    : base_(base), options_(options) {
  assert(base_ != nullptr);
  assert(options_.num_shards > 0);
  const size_t n = base_->size();
  const size_t s = options_.num_shards;
  assignment_.assign(s, {});

  switch (options_.order) {
    case ArrivalOrder::kShuffled: {
      std::vector<size_t> perm(n);
      std::iota(perm.begin(), perm.end(), size_t{0});
      Rng rng(options_.seed);
      rng.Shuffle(&perm);
      for (size_t e = 0; e < s; ++e) {
        const size_t begin = e * n / s, end = (e + 1) * n / s;
        assignment_[e].assign(perm.begin() + static_cast<ptrdiff_t>(begin),
                              perm.begin() + static_cast<ptrdiff_t>(end));
      }
      break;
    }
    case ArrivalOrder::kRoundRobin:
      for (size_t i = 0; i < n; ++i) assignment_[i % s].push_back(i);
      break;
    case ArrivalOrder::kSimilarityAscending:
      for (size_t e = 0; e < s; ++e) {
        const size_t begin = e * n / s, end = (e + 1) * n / s;
        assignment_[e].resize(end - begin);
        std::iota(assignment_[e].begin(), assignment_[e].end(), begin);
      }
      break;
  }

  // Arrival order within a shard is shuffled by the shard's own RNG stream:
  // consumers must not be able to rely on sorted arrival, and the draws are
  // independent per shard so shards materialize identically in any order.
  for (size_t e = 0; e < s; ++e) {
    Rng shard_rng = Rng::Stream(options_.seed, e);
    shard_rng.Shuffle(&assignment_[e]);
  }
}

bool WorkloadStream::Next(Shard* out) {
  assert(out != nullptr);
  if (next_epoch_ >= options_.num_shards) return false;
  *out = ShardAt(next_epoch_);
  ++next_epoch_;
  return true;
}

Shard WorkloadStream::ShardAt(size_t epoch) const {
  assert(epoch < options_.num_shards);
  Shard shard;
  shard.epoch = epoch;
  shard.pairs.reserve(assignment_[epoch].size());
  for (size_t i : assignment_[epoch]) shard.pairs.push_back((*base_)[i]);
  return shard;
}

}  // namespace humo::data
