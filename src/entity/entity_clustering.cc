#include "entity/entity_clustering.h"

#include <algorithm>
#include <cassert>

namespace humo::entity {
namespace {

/// Path-halving find over a flat parent array.
uint32_t Find(std::vector<uint32_t>* parent, uint32_t x) {
  std::vector<uint32_t>& p = *parent;
  while (p[x] != x) {
    p[x] = p[p[x]];
    x = p[x];
  }
  return x;
}

/// 11-bit digits: 2048 counters stay L1-resident, and a 32-bit id needs at
/// most three passes.
constexpr int kDigitBits = 11;
constexpr size_t kBuckets = size_t{1} << kDigitBits;

/// Ranks one endpoint column. Packs (id << 32) | pair into one word,
/// LSD-radix-sorts the words by id, and returns the column's distinct ids
/// ascending; `rank[pair]` receives the position of the pair's id among them.
/// `words` and `scratch` are the caller's buffers, reused across columns.
std::vector<uint32_t> RankColumn(const uint32_t* ids, size_t n,
                                 std::vector<uint64_t>* words,
                                 std::vector<uint64_t>* scratch,
                                 std::vector<uint32_t>* rank) {
  words->resize(n);
  uint32_t max_id = 0;
  for (size_t i = 0; i < n; ++i) {
    (*words)[i] = (static_cast<uint64_t>(ids[i]) << 32) | i;
    max_id = std::max(max_id, ids[i]);
  }
  int passes = 0;
  for (uint32_t v = max_id; v != 0; v >>= kDigitBits) ++passes;

  if (passes > 0) {
    std::vector<uint32_t> counts(passes * kBuckets, 0);
    for (const uint64_t w : *words) {
      for (int p = 0; p < passes; ++p) {
        const uint64_t digit = (w >> (32 + p * kDigitBits)) & (kBuckets - 1);
        ++counts[p * kBuckets + digit];
      }
    }
    scratch->resize(n);
    for (int p = 0; p < passes; ++p) {
      uint32_t* offsets = counts.data() + p * kBuckets;
      uint32_t running = 0;
      for (size_t b = 0; b < kBuckets; ++b) {
        const uint32_t c = offsets[b];
        offsets[b] = running;
        running += c;
      }
      const int shift = 32 + p * kDigitBits;
      for (const uint64_t w : *words) {
        (*scratch)[offsets[(w >> shift) & (kBuckets - 1)]++] = w;
      }
      words->swap(*scratch);
    }
  }

  std::vector<uint32_t> distinct;
  rank->resize(n);
  for (const uint64_t w : *words) {
    const uint32_t id = static_cast<uint32_t>(w >> 32);
    if (distinct.empty() || distinct.back() != id) distinct.push_back(id);
    (*rank)[static_cast<uint32_t>(w)] =
        static_cast<uint32_t>(distinct.size() - 1);
  }
  return distinct;
}

}  // namespace

RecordUniverse IndexRecords(const data::Workload& workload,
                            const ClusteringOptions& options) {
  const size_t n = workload.size();
  assert(n <= UINT32_MAX);
  RecordUniverse out;
  std::vector<uint32_t> left_ids, right_ids;
  {
    // One pair of radix buffers serves both columns and is freed before
    // the merge allocates.
    std::vector<uint64_t> words, scratch;
    left_ids =
        RankColumn(workload.left_id_data(), n, &words, &scratch, &out.left);
    right_ids =
        RankColumn(workload.right_id_data(), n, &words, &scratch, &out.right);
  }

  // One merge of the two ranked sides by packed key. Equal keys (a shared
  // source) become one record; comparing packed keys orders the sides
  // correctly whichever source number is larger.
  const uint64_t left_src = static_cast<uint64_t>(options.left_source) << 32;
  const uint64_t right_src = static_cast<uint64_t>(options.right_source) << 32;
  const size_t nl = left_ids.size();
  const size_t nr = right_ids.size();
  std::vector<uint32_t> left_global(nl), right_global(nr);
  auto keys = std::make_shared<std::vector<uint64_t>>();
  keys->reserve(nl + nr);
  size_t a = 0, b = 0;
  while (a < nl || b < nr) {
    const uint64_t ka = a < nl ? left_src | left_ids[a] : 0;
    const uint64_t kb = b < nr ? right_src | right_ids[b] : 0;
    const bool take_a = a < nl && (b == nr || ka <= kb);
    const bool take_b = b < nr && (a == nl || kb <= ka);
    const uint32_t global = static_cast<uint32_t>(keys->size());
    keys->push_back(take_a ? ka : kb);
    if (take_a) left_global[a++] = global;
    if (take_b) right_global[b++] = global;
  }
  keys->shrink_to_fit();
  out.record_keys = std::move(keys);

  for (uint32_t& r : out.left) r = left_global[r];
  for (uint32_t& r : out.right) r = right_global[r];
  return out;
}

RecordUniverse ExtendRecords(const RecordUniverse& prior,
                             const data::Workload& grown,
                             const std::vector<size_t>& landed,
                             const ClusteringOptions& options) {
  const size_t n = grown.size();
  assert(prior.left.size() + landed.size() == n && n <= UINT32_MAX);
  assert(landed.empty() || landed.back() < n);
  const uint32_t* new_l = grown.left_id_data();
  const uint32_t* new_r = grown.right_id_data();

  // 1. The landed pairs' keys, sorted and distinct, merged into the prior
  //    keys; `remap` carries each prior record index to its new position.
  const uint64_t left_src = static_cast<uint64_t>(options.left_source) << 32;
  const uint64_t right_src = static_cast<uint64_t>(options.right_source) << 32;
  std::vector<uint64_t> added_keys;
  added_keys.reserve(2 * landed.size());
  for (const size_t j : landed) {
    added_keys.push_back(left_src | new_l[j]);
    added_keys.push_back(right_src | new_r[j]);
  }
  std::sort(added_keys.begin(), added_keys.end());
  added_keys.erase(std::unique(added_keys.begin(), added_keys.end()),
                   added_keys.end());
  const std::vector<uint64_t>& old_keys = *prior.record_keys;
  const size_t m_old = old_keys.size();
  const size_t m_added = added_keys.size();
  // The added keys are few, so the merge copies each run of prior keys
  // between two of them whole: `remap` over a run is the identity plus the
  // run's shift. `added_at[b]` is added key b's merged position (an added
  // key equal to a prior one takes that record's position).
  std::vector<uint32_t> remap(m_old);
  std::vector<uint32_t> added_at(m_added);
  auto keys = std::make_shared<std::vector<uint64_t>>();
  keys->reserve(m_old + m_added);
  size_t a = 0;
  const auto copy_run = [&](size_t run_end) {
    const uint32_t shift = static_cast<uint32_t>(keys->size() - a);
    keys->insert(keys->end(), old_keys.begin() + a, old_keys.begin() + run_end);
    for (; a < run_end; ++a) remap[a] = static_cast<uint32_t>(a) + shift;
  };
  for (size_t b = 0; b < m_added; ++b) {
    size_t run_end = a;
    while (run_end < m_old && old_keys[run_end] < added_keys[b]) ++run_end;
    copy_run(run_end);
    added_at[b] = static_cast<uint32_t>(keys->size());
    if (a < m_old && old_keys[a] == added_keys[b]) continue;  // not new
    keys->push_back(added_keys[b]);
  }
  copy_run(m_old);

  // 2. Every pair's record indices: old pairs through the remap, landed
  //    pairs through their key's slot among the added keys.
  RecordUniverse out;
  out.record_keys = std::move(keys);
  out.left.resize(n);
  out.right.resize(n);
  const auto added_index = [&added_keys, &added_at](uint64_t key) {
    const auto it =
        std::lower_bound(added_keys.begin(), added_keys.end(), key);
    return added_at[it - added_keys.begin()];
  };
  size_t next_landed = 0;
  size_t i = 0;
  for (size_t j = 0; j < n; ++j) {
    if (next_landed < landed.size() && landed[next_landed] == j) {
      ++next_landed;
      out.left[j] = added_index(left_src | new_l[j]);
      out.right[j] = added_index(right_src | new_r[j]);
    } else {
      out.left[j] = remap[prior.left[i]];
      out.right[j] = remap[prior.right[i]];
      ++i;
    }
  }
  return out;
}

bool EntityClustering::MemberRange::Contains(RecordRef record) const {
  const uint64_t key = PackRecord(record);
  const auto key_less = [this](uint32_t r, uint64_t k) { return keys[r] < k; };
  const uint32_t* end = records + count;
  const uint32_t* it = std::lower_bound(records, end, key, key_less);
  return it != end && keys[*it] == key;
}

EntityClustering EntityClustering::FromLabels(const data::Workload& workload,
                                              const std::vector<int>& labels,
                                              const ClusteringOptions& options) {
  EntityClustering out;
  // Each temporary is scoped to its step, so the peak footprint is one
  // step's scratch on top of the final arrays: the per-pair record indices
  // are freed as soon as the union step has read them.
  std::vector<uint32_t> parent;
  {
    RecordUniverse universe = IndexRecords(workload, options);
    out.record_keys_ = universe.record_keys;
    parent = UnionMatches(universe, labels);
  }
  out.BuildFrom(std::move(parent));
  return out;
}

EntityClustering EntityClustering::FromUniverse(
    const RecordUniverse& universe, const std::vector<int>& labels) {
  EntityClustering out;
  out.record_keys_ = universe.record_keys;
  out.BuildFrom(UnionMatches(universe, labels));
  return out;
}

std::vector<uint32_t> EntityClustering::UnionMatches(
    const RecordUniverse& universe, const std::vector<int>& labels) {
  const size_t n = universe.left.size();
  assert(labels.size() == n);
  const size_t m = universe.record_keys->size();
  // Serial O(n alpha): the canonical renumbering erases any dependence on
  // union order.
  std::vector<uint32_t> parent(m);
  for (size_t r = 0; r < m; ++r) parent[r] = static_cast<uint32_t>(r);
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] != 1) continue;
    const uint32_t a = Find(&parent, universe.left[i]);
    const uint32_t b = Find(&parent, universe.right[i]);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  return parent;
}

void EntityClustering::BuildFrom(std::vector<uint32_t> parent) {
  const size_t m = parent.size();
  assert(m == record_keys_->size());
  {
    // Canonical entity ids: first appearance in ascending record order.
    entity_of_.assign(m, 0);
    std::vector<uint32_t> entity_of_root(m, UINT32_MAX);
    uint32_t next = 0;
    for (size_t r = 0; r < m; ++r) {
      const uint32_t root = Find(&parent, static_cast<uint32_t>(r));
      if (entity_of_root[root] == UINT32_MAX) entity_of_root[root] = next++;
      entity_of_[r] = entity_of_root[root];
    }
    num_entities_ = next;
    parent = {};
  }

  // CSR member lists of record indices: counting pass, prefix offsets,
  // ascending scatter (records scanned in ascending key order land sorted
  // within their entity automatically). The counts become the scatter
  // cursors.
  std::vector<uint32_t> counts(num_entities_, 0);
  for (size_t r = 0; r < m; ++r) ++counts[entity_of_[r]];
  member_offsets_.assign(num_entities_ + 1, 0);
  for (size_t e = 0; e < num_entities_; ++e) {
    member_offsets_[e + 1] = member_offsets_[e] + counts[e];
    if (counts[e] >= 2) ++multi_record_entities_;
    counts[e] = member_offsets_[e];
  }
  members_.resize(m);
  for (size_t r = 0; r < m; ++r) {
    members_[counts[entity_of_[r]]++] = static_cast<uint32_t>(r);
  }

  checksum_ = ComputeChecksum();
}

std::optional<uint32_t> EntityClustering::EntityOf(RecordRef record) const {
  const size_t idx = RecordIndexOf(record);
  if (idx >= record_keys_->size()) return std::nullopt;
  return entity_of_[idx];
}

EntityClustering::MemberRange EntityClustering::MembersOf(
    uint32_t entity) const {
  if (entity >= num_entities_) return {};
  const size_t begin = member_offsets_[entity];
  const size_t end = member_offsets_[entity + 1];
  return {members_.data() + begin, record_keys_->data(), end - begin};
}

size_t EntityClustering::RecordIndexOf(RecordRef record) const {
  const std::vector<uint64_t>& keys = *record_keys_;
  const uint64_t key = PackRecord(record);
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return keys.size();
  return static_cast<size_t>(it - keys.begin());
}

uint64_t EntityClustering::ComputeChecksum() const {
  // FNV-1a with one step per 64-bit word (see Checksum()).
  uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](uint64_t word) {
    h ^= word;
    h *= 1099511628211ULL;
  };
  const std::vector<uint64_t>& keys = *record_keys_;
  mix(keys.size());
  mix(num_entities_);
  for (size_t r = 0; r < keys.size(); ++r) {
    mix(keys[r]);
    mix(entity_of_[r]);
  }
  return h;
}

}  // namespace humo::entity
