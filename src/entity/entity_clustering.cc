#include "entity/entity_clustering.h"

#include <algorithm>
#include <cassert>
#include <optional>

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

/// The sparse path of FromLabels: each column radix-ranked, then one merge
/// of the two ranked sides by packed key.
RecordUniverse RadixIndex(const data::Workload& workload,
                          const ClusteringOptions& options) {
  const size_t n = workload.size();
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

  // Equal keys (a shared source) become one record; comparing packed keys
  // orders the sides correctly whichever source number is larger.
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

/// Record index per id over one source's dense span: `(*this)[id]` for any
/// id the source holds.
struct RankTable {
  uint32_t lo = 0;
  std::vector<uint32_t> index;  // record index of id lo + k at [k]
  uint32_t operator[](uint32_t id) const { return index[id - lo]; }
};

/// The dense path of FromLabels: the view's record keys and
/// one RankTable per source (a shared source's two columns share one).
struct RankTables {
  std::shared_ptr<std::vector<uint64_t>> keys;
  std::vector<RankTable> tables;  // left column's first
  const RankTable& left() const { return tables.front(); }
  const RankTable& right() const { return tables.back(); }
};

/// Ranks the view through tables when every source's id span is at most
/// kDenseSpanPerEndpoint times the endpoints it holds; nullopt (having
/// allocated nothing) otherwise.
std::optional<RankTables> RankDense(const data::Workload& workload,
                                    const ClusteringOptions& options) {
  const size_t n = workload.size();
  assert(n <= UINT32_MAX);
  const uint32_t* const columns[2] = {workload.left_id_data(),
                                      workload.right_id_data()};
  uint32_t lo[2] = {UINT32_MAX, UINT32_MAX};
  uint32_t hi[2] = {0, 0};
  for (int c = 0; c < 2; ++c) {
    for (size_t i = 0; i < n; ++i) {
      lo[c] = std::min(lo[c], columns[c][i]);
      hi[c] = std::max(hi[c], columns[c][i]);
    }
  }
  const bool shared = options.left_source == options.right_source;
  if (shared) {
    lo[0] = lo[1] = std::min(lo[0], lo[1]);
    hi[0] = hi[1] = std::max(hi[0], hi[1]);
  }
  const uint64_t endpoints = shared ? 2 * n : n;
  uint64_t span[2];
  for (int c = 0; c < 2; ++c) {
    span[c] = n == 0 ? 0 : uint64_t{hi[c]} - lo[c] + 1;
    if (span[c] > kDenseSpanPerEndpoint * endpoints) return std::nullopt;
  }

  // Mark each source's ids, counting the distinct ones; then number the
  // marked ids in ascending order, sources in key order, so the keys come
  // out sorted with no merge.
  RankTables out;
  const int num_tables = shared ? 1 : 2;
  out.tables.resize(num_tables);
  size_t distinct = 0;
  for (int t = 0; t < num_tables; ++t) {
    RankTable& table = out.tables[t];
    table.lo = lo[t];
    table.index.assign(span[t], 0);
    for (int c = t; c < 2; c += num_tables) {
      for (size_t i = 0; i < n; ++i) {
        uint32_t& mark = table.index[columns[c][i] - table.lo];
        distinct += 1 - mark;
        mark = 1;
      }
    }
  }
  out.keys = std::make_shared<std::vector<uint64_t>>();
  out.keys->reserve(distinct);
  const uint32_t sources[2] = {options.left_source, options.right_source};
  const int first = !shared && sources[1] < sources[0] ? 1 : 0;
  for (int k = 0; k < num_tables; ++k) {
    const int t = first ^ k;
    const uint64_t src = static_cast<uint64_t>(sources[t]) << 32;
    std::vector<uint32_t>& index = out.tables[t].index;
    for (size_t id = 0; id < index.size(); ++id) {
      if (index[id] == 0) continue;
      index[id] = static_cast<uint32_t>(out.keys->size());
      out.keys->push_back(src | (out.tables[t].lo + id));
    }
  }
  return out;
}

/// Union-find parent array over `m` records after joining the match-labeled
/// pairs; `left(i)` and `right(i)` are pair i's record indices. Roots link
/// larger under smaller, so each root is its component's smallest record.
/// Serial O(n alpha): the canonical renumbering erases any dependence on
/// union order.
template <typename LeftRecord, typename RightRecord>
std::vector<uint32_t> UnionMatches(size_t m, const std::vector<int>& labels,
                                   LeftRecord left, RightRecord right) {
  std::vector<uint32_t> parent(m);
  for (size_t r = 0; r < m; ++r) parent[r] = static_cast<uint32_t>(r);
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] != 1) continue;
    const uint32_t a = Find(&parent, left(i));
    const uint32_t b = Find(&parent, right(i));
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  return parent;
}

std::vector<uint32_t> UnionMatches(const RecordUniverse& universe,
                                   const std::vector<int>& labels) {
  assert(labels.size() == universe.left.size());
  return UnionMatches(
      universe.record_keys->size(), labels,
      [&universe](size_t i) { return universe.left[i]; },
      [&universe](size_t i) { return universe.right[i]; });
}

}  // namespace

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

EntityClustering EntityClustering::FromLabels(const data::Workload& workload,
                                              const std::vector<int>& labels,
                                              const ClusteringOptions& options) {
  assert(labels.size() == workload.size());
  EntityClustering out;
  // The rank tables (or the radix universe) are freed before BuildFrom,
  // which allocates nothing: the parent array becomes entity_of_. A dense
  // view unions straight through its tables and builds no per-pair record
  // arrays.
  std::vector<uint32_t> parent;
  if (const std::optional<RankTables> ranks = RankDense(workload, options)) {
    out.record_keys_ = ranks->keys;
    const uint32_t* l = workload.left_id_data();
    const uint32_t* r = workload.right_id_data();
    const RankTable& left = ranks->left();
    const RankTable& right = ranks->right();
    parent = UnionMatches(
        ranks->keys->size(), labels, [&](size_t i) { return left[l[i]]; },
        [&](size_t i) { return right[r[i]]; });
  } else {
    const RecordUniverse universe = RadixIndex(workload, options);
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

void EntityClustering::BuildFrom(std::vector<uint32_t> parent) {
  const size_t m = parent.size();
  assert(m == record_keys_->size());
  // Canonical entity ids: first appearance in ascending record order. Every
  // link points to a smaller record (UnionMatches), so in one ascending scan
  // a root takes the next id and any other record copies the id its
  // parent's slot already holds: the parent array becomes entity_of_ in
  // place.
  uint32_t next = 0;
  for (size_t r = 0; r < m; ++r) {
    const uint32_t p = parent[r];
    assert(p <= r);
    parent[r] = p == r ? next++ : parent[p];
  }
  entity_of_ = std::move(parent);
  num_entities_ = next;
  checksum_ = ComputeChecksum();
}

std::optional<uint32_t> EntityClustering::EntityOf(RecordRef record) const {
  const size_t idx = RecordIndexOf(record);
  if (idx >= record_keys_->size()) return std::nullopt;
  return entity_of_[idx];
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
