#include "core/crowd_oracle.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace humo::core {
namespace {

/// Stable per-(seed, index, worker) unit draw so verdicts are reproducible
/// and re-queries cannot change history.
double HashToUnit(uint64_t seed, uint64_t index, uint64_t worker) {
  uint64_t z = seed ^ (index * 0x9E3779B97F4A7C15ULL) ^
               (worker * 0xBF58476D1CE4E5B9ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

/// Domain tag so worker-identity draws never collide with vote draws.
constexpr uint64_t kWorkerAssignTag = 0xA24BAED4963EE407ULL;
constexpr uint64_t kWorkerErrorTag = 0x9FB21C651E98DF25ULL;

}  // namespace

CrowdOptions ValidateCrowdOptions(CrowdOptions o) {
  // Majority vote needs an odd worker count: an even count would break
  // ties toward non-match, silently biasing every close verdict.
  if (o.workers_per_pair == 0) o.workers_per_pair = 1;
  if (o.workers_per_pair % 2 == 0) ++o.workers_per_pair;
  // NaN fails every comparison, so the `!(x >= 0)` form clamps it to 0.
  if (!(o.worker_error_rate >= 0.0)) o.worker_error_rate = 0.0;
  if (o.worker_error_rate > 1.0) o.worker_error_rate = 1.0;
  if (!(o.worker_error_spread >= 0.0)) o.worker_error_spread = 0.0;
  if (o.worker_error_spread > 0.5) o.worker_error_spread = 0.5;
  // A pool smaller than one pair's jury cannot seat distinct workers.
  if (o.worker_pool > 0 && o.worker_pool < o.workers_per_pair) {
    o.worker_pool = o.workers_per_pair;
  }
  if (o.ds_em_iterations == 0) o.ds_em_iterations = 1;
  return o;
}

CrowdOracle::CrowdOracle(const data::Workload* workload, CrowdOptions options)
    : workload_(workload), options_(ValidateCrowdOptions(options)) {
  assert(workload_ != nullptr);
}

double CrowdOracle::PlantedWorkerError(size_t worker) const {
  assert(options_.worker_pool > 0 && worker < options_.worker_pool);
  const double u =
      2.0 * HashToUnit(options_.seed ^ kWorkerErrorTag, worker, 1) - 1.0;
  return std::clamp(
      options_.worker_error_rate + options_.worker_error_spread * u, 0.0,
      0.49);
}

void CrowdOracle::AssignWorkers(size_t index,
                                std::vector<uint32_t>* workers) const {
  workers->clear();
  const size_t k = options_.workers_per_pair;
  if (options_.worker_pool == 0) {
    // Legacy anonymous jury: worker slot w of pair `index` exists only for
    // this pair.
    for (size_t w = 0; w < k; ++w) {
      workers->push_back(static_cast<uint32_t>(w));
    }
    return;
  }
  // Persistent pool: k DISTINCT workers per pair, chosen by seeded hashing
  // with linear probing (deterministic in (seed, index, slot) alone).
  const size_t pool = options_.worker_pool;
  for (size_t slot = 0; slot < k; ++slot) {
    uint64_t w = static_cast<uint64_t>(
                     HashToUnit(options_.seed ^ kWorkerAssignTag, index,
                                slot) *
                     static_cast<double>(pool)) %
                 pool;
    while (std::find(workers->begin(), workers->end(),
                     static_cast<uint32_t>(w)) != workers->end()) {
      w = (w + 1) % pool;
    }
    workers->push_back(static_cast<uint32_t>(w));
  }
}

void CrowdOracle::AdjudicateFresh(const std::vector<size_t>& fresh) {
  if (fresh.empty()) return;
  const size_t k = options_.workers_per_pair;
  const bool ds = options_.aggregation == CrowdAggregation::kDawidSkene &&
                  options_.worker_pool > 0;

  std::vector<uint32_t> workers;
  // First: purchase every vote of the batch (votes are independent of the
  // aggregation mode; only the fold differs).
  std::vector<char> batch_votes;  // k per pair, parallel to `fresh`
  batch_votes.reserve(fresh.size() * k);
  for (const size_t index : fresh) {
    assert(index < workload_->size());
    const bool truth = workload_->IsMatch(index);
    AssignWorkers(index, &workers);
    for (size_t slot = 0; slot < k; ++slot) {
      const uint32_t w = workers[slot];
      double error = options_.worker_error_rate;
      uint64_t vote_tag = w;  // legacy draw: (seed, index, slot)
      if (options_.worker_pool > 0) {
        error = PlantedWorkerError(w);
        // Pool mode keys the draw by worker IDENTITY so the same worker
        // re-judging a pair (impossible today, cheap insurance) answers
        // identically.
        vote_tag = 0x10000000ULL + w;
      }
      bool answer = truth;
      if (HashToUnit(options_.seed, index, vote_tag) < error) {
        answer = !answer;
      }
      batch_votes.push_back(answer ? 1 : 0);
      if (ds) {
        votes_.push_back({static_cast<uint32_t>(vote_items_), w,
                          static_cast<uint8_t>(answer ? 1 : 0)});
      }
    }
    if (ds) ++vote_items_;
    worker_answers_ += k;
  }

  // Second: fold votes into one verdict per pair. Dawid–Skene runs one
  // fixed-iteration EM over the FULL purchase-ordered history, so every
  // earlier purchase sharpens the worker-confusion estimates the fresh
  // pairs are adjudicated under; already-fixed verdicts are never revised.
  std::vector<char> use_ds(fresh.size(), 0);
  stats::DawidSkeneResult em;
  if (ds && vote_items_ >= options_.ds_min_adjudicated) {
    stats::DawidSkeneOptions emo;
    emo.iterations = options_.ds_em_iterations;
    em = stats::RunDawidSkene(vote_items_, options_.worker_pool, votes_, emo);
    worker_error_estimates_ = em.error_rate;
    std::fill(use_ds.begin(), use_ds.end(), 1);
  }
  const size_t first_item = vote_items_ - (ds ? fresh.size() : 0);
  for (size_t t = 0; t < fresh.size(); ++t) {
    const size_t index = fresh[t];
    size_t votes_match = 0;
    for (size_t slot = 0; slot < k; ++slot) {
      votes_match += batch_votes[t * k + slot] != 0;
    }
    bool verdict;
    if (use_ds[t]) {
      const double p = em.posterior[first_item + t];
      // Exact 0.5 posterior (e.g. symmetric evidence): majority decides.
      verdict = p > 0.5 ||
                (p == 0.5 && votes_match * 2 > k);
    } else {
      verdict = votes_match * 2 > k;
    }
    if (verdict != workload_->IsMatch(index)) ++wrong_verdicts_;
    verdicts_.Record(index, verdict);
    ++adjudicated_;
  }
}

bool CrowdOracle::Label(size_t index) {
  assert(index < workload_->size());
  ++total_requests_;
  if (verdicts_.Known(index)) return verdicts_.Answer(index);
  AdjudicateFresh({index});
  return verdicts_.Answer(index);
}

std::vector<char> CrowdOracle::InspectBatch(
    const std::vector<size_t>& indices) {
  // Collect the distinct unknown pairs in first-occurrence order and
  // adjudicate them as ONE purchase, then serve the whole batch from
  // memory. Counters land exactly where a per-pair Label loop puts them.
  std::vector<size_t> fresh;
  fresh.reserve(indices.size());
  for (const size_t index : indices) {
    assert(index < workload_->size());
    if (!verdicts_.Known(index) &&
        std::find(fresh.begin(), fresh.end(), index) == fresh.end()) {
      fresh.push_back(index);
    }
  }
  AdjudicateFresh(fresh);
  std::vector<char> verdicts(indices.size());
  for (size_t t = 0; t < indices.size(); ++t) {
    ++total_requests_;
    verdicts[t] = verdicts_.Answer(indices[t]) ? 1 : 0;
  }
  return verdicts;
}

double CrowdOracle::VerdictErrorRate() const {
  if (adjudicated_ == 0) return 0.0;
  return static_cast<double>(wrong_verdicts_) /
         static_cast<double>(adjudicated_);
}

}  // namespace humo::core
