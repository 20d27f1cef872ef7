#include "core/estimation_engine.h"

#include <algorithm>
#include <cassert>

namespace humo::core {

void SubsetStatsCache::Resize(size_t num_subsets) {
  full_known_.assign(num_subsets, 0);
  full_count_.assign(num_subsets, 0);
  stratum_known_.assign(num_subsets, 0);
  strata_.assign(num_subsets, stats::Stratum{});
}

size_t SubsetStatsCache::FullCount(size_t k) const {
  assert(HasFullCount(k));
  return full_count_[k];
}

void SubsetStatsCache::SetFullCount(size_t k, size_t matches) {
  full_known_[k] = 1;
  full_count_[k] = matches;
}

const stats::Stratum& SubsetStatsCache::StratumAt(size_t k) const {
  assert(HasStratum(k));
  return strata_[k];
}

void SubsetStatsCache::SetStratum(size_t k, const stats::Stratum& stratum) {
  stratum_known_[k] = 1;
  strata_[k] = stratum;
}

void SubsetStatsCache::ResizeKeepingPrefix(size_t num_subsets,
                                           size_t keep_prefix) {
  keep_prefix = std::min(keep_prefix, num_subsets);
  full_known_.resize(num_subsets, 0);
  full_count_.resize(num_subsets, 0);
  stratum_known_.resize(num_subsets, 0);
  strata_.resize(num_subsets, stats::Stratum{});
  std::fill(full_known_.begin() + static_cast<ptrdiff_t>(keep_prefix),
            full_known_.end(), 0);
  std::fill(stratum_known_.begin() + static_cast<ptrdiff_t>(keep_prefix),
            stratum_known_.end(), 0);
}

EstimationContext::EstimationContext(const SubsetPartition* partition,
                                     Oracle* oracle)
    : partition_(partition), oracle_(oracle) {
  assert(partition_ != nullptr);
  cache_.Resize(partition_->num_subsets());
}

size_t EstimationContext::LabelSubset(size_t k) {
  assert(k < partition_->num_subsets());
  const Subset& s = (*partition_)[k];
  if (cache_.HasFullCount(k)) {
    ++stats_.full_label_hits;
    stats_.oracle_pairs_saved += s.size();
    return cache_.FullCount(k);
  }
  if (cache_.HasStratum(k) && cache_.StratumAt(k).fully_enumerated()) {
    // A fully-enumerated sampling stratum IS a full label — promote it.
    const size_t matches = cache_.StratumAt(k).sample_positives;
    cache_.SetFullCount(k, matches);
    ++stats_.full_label_hits;
    stats_.oracle_pairs_saved += s.size();
    return matches;
  }
  ++stats_.full_label_misses;
  // Only pairs the oracle has never answered are sent; answers it already
  // holds (e.g. from an earlier sampling pass) are free lookups.
  size_t matches = 0;
  std::vector<size_t> fresh;
  fresh.reserve(s.size());
  for (size_t i = s.begin; i < s.end; ++i) {
    if (oracle_->WasAsked(i)) {
      matches += oracle_->CachedAnswer(i);
    } else {
      fresh.push_back(i);
    }
  }
  const std::vector<char> answers = oracle_->InspectBatch(fresh);
  for (char a : answers) matches += a;
  stats_.oracle_pairs_inspected += fresh.size();
  stats_.oracle_pairs_saved += s.size() - fresh.size();
  cache_.SetFullCount(k, matches);
  return matches;
}

const stats::Stratum& EstimationContext::SampleSubset(size_t k, size_t take,
                                                      Rng* rng) {
  assert(k < partition_->num_subsets());
  const Subset& s = (*partition_)[k];
  take = std::min(take, s.size());
  if (cache_.HasFullCount(k) &&
      (!cache_.HasStratum(k) || !cache_.StratumAt(k).fully_enumerated())) {
    // Full enumeration dominates any sample (including an undersized cached
    // one): pin with the exact count.
    stats::Stratum st;
    st.population = s.size();
    st.sample_size = s.size();
    st.sample_positives = cache_.FullCount(k);
    cache_.SetStratum(k, st);
  }
  if (cache_.HasStratum(k)) {
    const stats::Stratum& cached = cache_.StratumAt(k);
    if (cached.sample_size >= take) {
      ++stats_.stratum_hits;
      stats_.oracle_pairs_saved += take;
      return cached;
    }
  }
  ++stats_.stratum_misses;
  // Same draw the historical serial path made, so a fresh context
  // reproduces historical sampling behavior bit-for-bit.
  const std::vector<size_t> picks =
      rng->SampleWithoutReplacement(s.size(), take);
  stats::Stratum st;
  st.population = s.size();
  st.sample_size = take;
  std::vector<size_t> fresh;
  fresh.reserve(take);
  for (size_t off : picks) {
    const size_t i = s.begin + off;
    if (oracle_->WasAsked(i)) {
      st.sample_positives += oracle_->CachedAnswer(i);
    } else {
      fresh.push_back(i);
    }
  }
  const std::vector<char> answers = oracle_->InspectBatch(fresh);
  for (char a : answers) st.sample_positives += a;
  stats_.oracle_pairs_inspected += fresh.size();
  stats_.oracle_pairs_saved += take - fresh.size();
  cache_.SetStratum(k, st);
  return cache_.StratumAt(k);
}

size_t EstimationContext::InspectSubsetPairs(
    size_t k, const std::vector<size_t>& pair_indices) {
  assert(k < partition_->num_subsets());
  const Subset& s = (*partition_)[k];
  size_t matches = 0;
  std::vector<size_t> fresh;
  fresh.reserve(pair_indices.size());
  for (size_t i : pair_indices) {
    assert(i >= s.begin && i < s.end);
    if (oracle_->WasAsked(i)) {
      matches += oracle_->CachedAnswer(i);
    } else {
      fresh.push_back(i);
    }
  }
  const std::vector<char> answers = oracle_->InspectBatch(fresh);
  for (char a : answers) matches += a;
  stats_.oracle_pairs_inspected += fresh.size();
  stats_.oracle_pairs_saved += pair_indices.size() - fresh.size();
  // Refresh the cached stratum to the oracle's full answer set for the
  // subset (answers accumulated by ANY earlier phase included). Risk-ordered
  // inspection draws pairs in seeded-random order, so the enlarged stratum
  // keeps the random-sample semantics SampleSubset consumers assume.
  stats::Stratum st;
  st.population = s.size();
  for (size_t i = s.begin; i < s.end; ++i) {
    if (!oracle_->WasAsked(i)) continue;
    ++st.sample_size;
    st.sample_positives += oracle_->CachedAnswer(i);
  }
  cache_.SetStratum(k, st);
  if (st.fully_enumerated()) cache_.SetFullCount(k, st.sample_positives);
  return matches;
}

double EstimationContext::UpperWindowProportion(size_t lo, size_t hi,
                                                size_t window,
                                                size_t max_pairs) const {
  assert(window > 0 && lo <= hi && hi < partition_->num_subsets());
  size_t pairs = 0, matches = 0, taken = 0;
  for (size_t k = hi;;) {
    if (max_pairs != 0 && pairs >= max_pairs) break;
    pairs += (*partition_)[k].size();
    matches += cache_.FullCount(k);
    ++taken;
    if (k == lo || taken == window) break;
    --k;
  }
  return pairs == 0
             ? 0.0
             : static_cast<double>(matches) / static_cast<double>(pairs);
}

double EstimationContext::LowerWindowProportion(size_t lo, size_t hi,
                                                size_t window,
                                                size_t max_pairs) const {
  assert(window > 0 && lo <= hi && hi < partition_->num_subsets());
  size_t pairs = 0, matches = 0, taken = 0;
  for (size_t k = lo;;) {
    if (max_pairs != 0 && pairs >= max_pairs) break;
    pairs += (*partition_)[k].size();
    matches += cache_.FullCount(k);
    ++taken;
    if (k == hi || taken == window) break;
    ++k;
  }
  return pairs == 0
             ? 0.0
             : static_cast<double>(matches) / static_cast<double>(pairs);
}

void EstimationContext::OnPartitionExtended(size_t preserved_prefix_subsets) {
  const size_t m = partition_->num_subsets();
  preserved_prefix_subsets = std::min(preserved_prefix_subsets, m);
  cache_.ResizeKeepingPrefix(m, preserved_prefix_subsets);
  // The stored outcome's solution range and strata vector describe the old
  // partition — a consumer reusing them against the new one would read past
  // the end or mislabel subsets.
  sampling_outcome_.reset();
  const bool warm_state_intact =
      std::all_of(gp_fit_state_.order.begin(), gp_fit_state_.order.end(),
                  [preserved_prefix_subsets](size_t k) {
                    return k < preserved_prefix_subsets;
                  });
  if (!warm_state_intact) gp_fit_state_ = GpFitState{};
}

void EstimationContext::StoreSamplingOutcome(
    std::shared_ptr<const PartialSamplingOutcome> o) {
  sampling_outcome_ = std::move(o);
}

}  // namespace humo::core
