#include "core/crowd_oracle.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace humo::core {
namespace {

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

std::vector<char> CrowdOracle::Adjudicate(const std::vector<size_t>& fresh) {
  std::vector<char> verdicts(fresh.size());
  if (fresh.empty()) return verdicts;
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
    verdicts[t] = verdict ? 1 : 0;
    ++adjudicated_;
  }
  return verdicts;
}

Oracle::AnswerProvider CrowdOracle::Provider() {
  return [this](const std::vector<size_t>& fresh) {
    return Adjudicate(fresh);
  };
}

double CrowdOracle::VerdictErrorRate() const {
  if (adjudicated_ == 0) return 0.0;
  return static_cast<double>(wrong_verdicts_) /
         static_cast<double>(adjudicated_);
}

}  // namespace humo::core
