#include "core/estimation_engine.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace humo::core {

EstimationContext::EstimationContext(const SubsetPartition* partition,
                                     Oracle* oracle)
    : partition_(partition), oracle_(oracle) {
  assert(partition_ != nullptr);
  OnPartitionExtended(0);  // one unlabeled stratum per subset
}

size_t EstimationContext::InspectPairs(const Subset& s,
                                       const std::vector<size_t>& pairs) {
  (void)s;  // read only by the range assert
  size_t matches = 0;
  std::vector<size_t> fresh;
  fresh.reserve(pairs.size());
  for (size_t i : pairs) {
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
  stats_.oracle_pairs_saved += pairs.size() - fresh.size();
  return matches;
}

size_t EstimationContext::LabelSubset(size_t k) {
  assert(k < partition_->num_subsets());
  const stats::Stratum& st = strata_[k];
  if (st.fully_enumerated()) {
    ++stats_.full_label_hits;
    stats_.oracle_pairs_saved += st.population;
    return st.sample_positives;
  }
  ++stats_.full_label_misses;
  const Subset& s = (*partition_)[k];
  std::vector<size_t> all(s.size());
  std::iota(all.begin(), all.end(), s.begin);
  return InspectSubsetPairs(k, all);
}

const stats::Stratum& EstimationContext::SampleSubset(size_t k, size_t take,
                                                      Rng* rng) {
  assert(k < partition_->num_subsets());
  stats::Stratum& st = strata_[k];
  take = std::min(take, st.population);
  if (st.sample_size >= take) {
    ++stats_.stratum_hits;
    stats_.oracle_pairs_saved += take;
    return st;
  }
  ++stats_.stratum_misses;
  // Same draw the historical serial path made, so a fresh context
  // reproduces historical sampling behavior bit-for-bit.
  const Subset& s = (*partition_)[k];
  std::vector<size_t> picks = rng->SampleWithoutReplacement(s.size(), take);
  for (size_t& i : picks) i += s.begin;
  st.sample_size = take;
  st.sample_positives = InspectPairs(s, picks);
  return st;
}

size_t EstimationContext::InspectSubsetPairs(
    size_t k, const std::vector<size_t>& pair_indices) {
  assert(k < partition_->num_subsets());
  const Subset& s = (*partition_)[k];
  const size_t matches = InspectPairs(s, pair_indices);
  // Refresh the stratum to the oracle's full answer set for the subset
  // (answers accumulated by ANY earlier phase included). Risk-ordered
  // inspection draws pairs in seeded-random order, so the enlarged stratum
  // keeps the random-sample semantics SampleSubset consumers assume.
  stats::Stratum& st = strata_[k];
  st.sample_size = 0;
  st.sample_positives = 0;
  for (size_t i = s.begin; i < s.end; ++i) {
    if (!oracle_->WasAsked(i)) continue;
    ++st.sample_size;
    st.sample_positives += oracle_->CachedAnswer(i);
  }
  return matches;
}

double EstimationContext::WindowProportion(size_t from, size_t to,
                                           size_t window,
                                           size_t max_pairs) const {
  assert(window > 0 && std::max(from, to) < partition_->num_subsets());
  size_t pairs = 0, matches = 0, taken = 0;
  for (size_t k = from;; k = from < to ? k + 1 : k - 1) {
    if (max_pairs != 0 && pairs >= max_pairs) break;
    const stats::Stratum& st = strata_[k];
    assert(st.fully_enumerated());
    pairs += st.population;
    matches += st.sample_positives;
    if (k == to || ++taken == window) break;
  }
  return pairs == 0
             ? 0.0
             : static_cast<double>(matches) / static_cast<double>(pairs);
}

double EstimationContext::UpperWindowProportion(size_t lo, size_t hi,
                                                size_t window,
                                                size_t max_pairs) const {
  assert(lo <= hi);
  return WindowProportion(hi, lo, window, max_pairs);
}

double EstimationContext::LowerWindowProportion(size_t lo, size_t hi,
                                                size_t window,
                                                size_t max_pairs) const {
  assert(lo <= hi);
  return WindowProportion(lo, hi, window, max_pairs);
}

void EstimationContext::OnPartitionExtended(size_t preserved_prefix_subsets) {
  const size_t m = partition_->num_subsets();
  preserved_prefix_subsets = std::min(preserved_prefix_subsets, m);
  strata_.resize(m);
  for (size_t k = preserved_prefix_subsets; k < m; ++k)
    strata_[k] = stats::Stratum{(*partition_)[k].size(), 0, 0};
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
