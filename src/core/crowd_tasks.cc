#include "core/crowd_tasks.h"

#include <algorithm>
#include <cassert>

#include "entity/entity_clustering.h"

namespace humo::core {

uint32_t TransitiveInference::Intern(uint64_t key) {
  const auto [it, inserted] =
      ids_.emplace(key, static_cast<uint32_t>(parent_.size()));
  if (inserted) {
    parent_.push_back(it->second);
    size_.push_back(1);
    neg_.emplace_back();
  }
  return it->second;
}

uint32_t TransitiveInference::Find(uint32_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

uint32_t TransitiveInference::FindConst(uint32_t x) const {
  while (parent_[x] != x) x = parent_[x];
  return x;
}

int TransitiveInference::Infer(uint64_t a, uint64_t b) const {
  if (a == b) return kMatch;  // reflexivity
  const auto ia = ids_.find(a);
  const auto ib = ids_.find(b);
  if (ia == ids_.end() || ib == ids_.end()) return kUnknown;
  const uint32_t ra = FindConst(ia->second);
  const uint32_t rb = FindConst(ib->second);
  if (ra == rb) return kMatch;
  if (neg_[ra].count(rb) != 0) return kNonMatch;
  return kUnknown;
}

uint64_t TransitiveInference::ComponentKey(uint64_t key) const {
  const auto it = ids_.find(key);
  if (it == ids_.end()) return key;
  // Root indices are disambiguated from raw record keys by the top bit
  // (record keys are (source << 32) | id with source < 2^31).
  return (1ULL << 63) | static_cast<uint64_t>(FindConst(it->second));
}

void TransitiveInference::Observe(uint64_t a, uint64_t b, bool is_match) {
  if (a == b) return;  // self-pairs carry no cross-record information
  const uint32_t ia = Intern(a);
  const uint32_t ib = Intern(b);
  uint32_t ra = Find(ia);
  uint32_t rb = Find(ib);
  if (is_match) {
    if (ra == rb) return;  // already implied
    if (neg_[ra].count(rb) != 0) {
      // Closure says non-match (first purchase wins): drop.
      ++conflicts_dropped_;
      return;
    }
    // Union by size; equal sizes keep the smaller root id (deterministic).
    if (size_[ra] < size_[rb] || (size_[ra] == size_[rb] && rb < ra)) {
      std::swap(ra, rb);
    }
    // Move rb's negative edges onto ra, re-keying the neighbors' entries.
    for (const uint32_t n : neg_[rb]) {
      neg_[n].erase(rb);
      if (neg_[n].insert(ra).second) {
        neg_[ra].insert(n);
      } else {
        // ra and rb both held an edge to n: the two collapse into one.
        --negative_edges_;
      }
    }
    neg_[rb].clear();
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    ++merges_;
  } else {
    if (ra == rb) {
      // Closure says match (first purchase wins): drop.
      ++conflicts_dropped_;
      return;
    }
    if (neg_[ra].insert(rb).second) {
      neg_[rb].insert(ra);
      ++negative_edges_;
    }
  }
}

namespace {

/// Union-find over 64-bit keys, interned to dense ids in first-seen order.
/// A union hangs the larger root under the smaller, and Root halves paths,
/// so roots are a pure function of the order keys and unions arrive in.
class KeyUnionFind {
 public:
  /// Root of `key`'s set, interning `key` first if it is new.
  uint32_t Root(uint64_t key) {
    const auto [it, inserted] =
        ids_.emplace(key, static_cast<uint32_t>(parent_.size()));
    if (inserted) parent_.push_back(it->second);
    uint32_t x = it->second;
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Joins the sets of `a` and `b` (interning `a`, then `b`). Returns false
  /// when they were one set already.
  bool Unite(uint64_t a, uint64_t b) {
    const uint32_t ra = Root(a);
    const uint32_t rb = Root(b);
    if (ra == rb) return false;
    parent_[std::max(ra, rb)] = std::min(ra, rb);
    return true;
  }

 private:
  std::unordered_map<uint64_t, uint32_t> ids_;
  std::vector<uint32_t> parent_;
};

}  // namespace

std::vector<CrowdTask> PackCrowdTasks(const data::Workload& workload,
                                      std::vector<size_t> pair_indices,
                                      const CrowdTaskOptions& options) {
  const size_t capacity = std::max<size_t>(options.task_capacity, 1);
  std::sort(pair_indices.begin(), pair_indices.end());
  pair_indices.erase(
      std::unique(pair_indices.begin(), pair_indices.end()),
      pair_indices.end());
  if (pair_indices.empty()) return {};

  // Local union-find over the records these pairs mention; record ids are
  // interned in ascending-pair order, so the whole grouping is a pure
  // function of the sorted input.
  KeyUnionFind records;
  const uint32_t* lefts = workload.left_id_data();
  const uint32_t* rights = workload.right_id_data();
  for (const size_t i : pair_indices) {
    assert(i < workload.size());
    records.Unite(entity::PackRecord({options.left_source, lefts[i]}),
                  entity::PackRecord({options.right_source, rights[i]}));
  }

  // Components ordered by first appearance over the ascending pair walk
  // (== by smallest member pair index); pairs within a component ascend.
  std::unordered_map<uint32_t, size_t> component_ordinal;
  std::vector<std::vector<size_t>> groups;
  for (const size_t i : pair_indices) {
    const uint32_t root =
        records.Root(entity::PackRecord({options.left_source, lefts[i]}));
    const auto [it, inserted] =
        component_ordinal.emplace(root, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  // Greedy fill in component order: correlated pairs stay adjacent, every
  // task except the last is full, count is exactly ceil(n / capacity).
  std::vector<CrowdTask> tasks;
  tasks.emplace_back();
  for (const std::vector<size_t>& group : groups) {
    for (const size_t i : group) {
      if (tasks.back().pair_indices.size() == capacity) tasks.emplace_back();
      tasks.back().pair_indices.push_back(i);
    }
  }
  return tasks;
}

CrowdTaskBroker::CrowdTaskBroker(const data::Workload* workload,
                                 CrowdOracle* crowd, CrowdTaskOptions options)
    : workload_(workload), crowd_(crowd), options_(options) {
  assert(workload_ != nullptr && crowd_ != nullptr);
  options_.task_capacity = std::max<size_t>(options_.task_capacity, 1);
}

uint64_t CrowdTaskBroker::LeftKey(size_t pair) const {
  return entity::PackRecord(
      {options_.left_source, workload_->left_id_data()[pair]});
}

uint64_t CrowdTaskBroker::RightKey(size_t pair) const {
  return entity::PackRecord(
      {options_.right_source, workload_->right_id_data()[pair]});
}

std::vector<char> CrowdTaskBroker::Answer(const std::vector<size_t>& indices,
                                          std::vector<size_t>* purchased) {
  std::vector<char> answers(indices.size(), 0);
  // Positions (into `indices`) still awaiting an answer, and the verdicts
  // this call bought. A repeated index resolves from `bought` like any
  // other position.
  std::vector<size_t> pending(indices.size());
  for (size_t p = 0; p < indices.size(); ++p) pending[p] = p;
  std::unordered_map<size_t, bool> bought;

  const size_t workers_before = crowd_->worker_answers();
  while (!pending.empty()) {
    // Inference pass: answer everything the closure of the verdicts
    // purchased SO FAR (earlier batches and earlier tasks of this batch)
    // already decides. Free — no task, no worker.
    std::vector<size_t> still_pending;
    still_pending.reserve(pending.size());
    for (const size_t p : pending) {
      const size_t i = indices[p];
      assert(i < workload_->size());
      const int inferred = inference_.Infer(LeftKey(i), RightKey(i));
      if (inferred == TransitiveInference::kUnknown) {
        still_pending.push_back(p);
        continue;
      }
      answers[p] = inferred == TransitiveInference::kMatch ? 1 : 0;
      if (inferred == TransitiveInference::kMatch) {
        ++stats_.pairs_inferred_match;
      } else {
        ++stats_.pairs_inferred_nonmatch;
      }
    }
    pending.swap(still_pending);
    if (pending.empty()) break;

    // Spanning selection: defer any pair whose endpoints the already-
    // selected pairs — optimistically assumed matches — would connect,
    // because a match outcome answers it by transitivity for free. Seeded
    // with the closure's component buckets so earlier purchases defer too.
    std::vector<size_t> selected;
    selected.reserve(pending.size());
    KeyUnionFind buckets;
    for (const size_t p : pending) {
      const size_t i = indices[p];
      // A pair whose endpoints are already connected is potentially
      // inferable: it defers to the next round.
      if (buckets.Unite(inference_.ComponentKey(LeftKey(i)),
                        inference_.ComponentKey(RightKey(i)))) {
        selected.push_back(i);
      }
    }
    // The first pending pair always selects (were its records already
    // connected, the inference pass would have answered it), so every
    // round makes progress.
    assert(!selected.empty());

    // Post the whole round's cluster-packed tasks. Selected pairs are
    // mutually non-redundant under the optimistic rule, so no within-round
    // inference is forgone by not re-packing between tasks.
    const std::vector<CrowdTask> tasks =
        PackCrowdTasks(*workload_, std::move(selected), options_);
    for (const CrowdTask& task : tasks) {
      const std::vector<char> verdicts = crowd_->Adjudicate(task.pair_indices);
      ++stats_.tasks_posted;
      stats_.pairs_purchased += task.pair_indices.size();
      if (purchased != nullptr) {
        purchased->insert(purchased->end(), task.pair_indices.begin(),
                          task.pair_indices.end());
      }
      for (size_t t = 0; t < task.pair_indices.size(); ++t) {
        const size_t i = task.pair_indices[t];
        bought.emplace(i, verdicts[t] != 0);
        inference_.Observe(LeftKey(i), RightKey(i), verdicts[t] != 0);
      }
    }
    // Serve every pending position the round answered (purchased pairs are
    // a subset of the pending set by construction).
    still_pending.clear();
    for (const size_t p : pending) {
      const auto it = bought.find(indices[p]);
      if (it != bought.end()) {
        answers[p] = it->second ? 1 : 0;
      } else {
        still_pending.push_back(p);
      }
    }
    pending.swap(still_pending);
  }
  stats_.worker_answers += crowd_->worker_answers() - workers_before;
  return answers;
}

Oracle::AnswerProvider CrowdTaskBroker::Provider() {
  return [this](const std::vector<size_t>& indices) {
    return Answer(indices);
  };
}

}  // namespace humo::core
