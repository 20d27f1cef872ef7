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
std::vector<uint32_t> RankColumn(const uint32_t* ids, size_t n,
                                 std::vector<uint32_t>* rank) {
  std::vector<uint64_t> words(n);
  uint32_t max_id = 0;
  for (size_t i = 0; i < n; ++i) {
    words[i] = (static_cast<uint64_t>(ids[i]) << 32) | i;
    max_id = std::max(max_id, ids[i]);
  }
  int passes = 0;
  for (uint32_t v = max_id; v != 0; v >>= kDigitBits) ++passes;

  if (passes > 0) {
    std::vector<uint32_t> counts(passes * kBuckets, 0);
    for (const uint64_t w : words) {
      for (int p = 0; p < passes; ++p) {
        const uint64_t digit = (w >> (32 + p * kDigitBits)) & (kBuckets - 1);
        ++counts[p * kBuckets + digit];
      }
    }
    std::vector<uint64_t> scratch(n);
    for (int p = 0; p < passes; ++p) {
      uint32_t* offsets = counts.data() + p * kBuckets;
      uint32_t running = 0;
      for (size_t b = 0; b < kBuckets; ++b) {
        const uint32_t c = offsets[b];
        offsets[b] = running;
        running += c;
      }
      const int shift = 32 + p * kDigitBits;
      for (const uint64_t w : words) {
        scratch[offsets[(w >> shift) & (kBuckets - 1)]++] = w;
      }
      words.swap(scratch);
    }
  }

  std::vector<uint32_t> distinct;
  rank->resize(n);
  for (const uint64_t w : words) {
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
  const std::vector<uint32_t> left_ids =
      RankColumn(workload.left_id_data(), n, &out.left);
  const std::vector<uint32_t> right_ids =
      RankColumn(workload.right_id_data(), n, &out.right);

  // One merge of the two ranked sides by packed key. Equal keys (a shared
  // source) become one record; comparing packed keys orders the sides
  // correctly whichever source number is larger.
  const uint64_t left_src = static_cast<uint64_t>(options.left_source) << 32;
  const uint64_t right_src = static_cast<uint64_t>(options.right_source) << 32;
  const size_t nl = left_ids.size();
  const size_t nr = right_ids.size();
  std::vector<uint32_t> left_global(nl), right_global(nr);
  out.record_keys.reserve(nl + nr);
  size_t a = 0, b = 0;
  while (a < nl || b < nr) {
    const uint64_t ka = a < nl ? left_src | left_ids[a] : 0;
    const uint64_t kb = b < nr ? right_src | right_ids[b] : 0;
    const bool take_a = a < nl && (b == nr || ka <= kb);
    const bool take_b = b < nr && (a == nl || kb <= ka);
    const uint32_t global = static_cast<uint32_t>(out.record_keys.size());
    out.record_keys.push_back(take_a ? ka : kb);
    if (take_a) left_global[a++] = global;
    if (take_b) right_global[b++] = global;
  }
  out.record_keys.shrink_to_fit();

  for (uint32_t& r : out.left) r = left_global[r];
  for (uint32_t& r : out.right) r = right_global[r];
  return out;
}

bool EntityClustering::MemberRange::Contains(RecordRef record) const {
  const uint64_t key = PackRecord(record);
  const uint64_t* end = data + count;
  const uint64_t* it = std::lower_bound(data, end, key);
  return it != end && *it == key;
}

EntityClustering EntityClustering::FromLabels(const data::Workload& workload,
                                              const std::vector<int>& labels,
                                              const ClusteringOptions& options) {
  EntityClustering out;
  out.BuildFrom(IndexRecords(workload, options), labels);
  return out;
}

void EntityClustering::BuildFrom(RecordUniverse universe,
                                 const std::vector<int>& labels) {
  const size_t n = universe.left.size();
  assert(labels.size() == n);
  if (n == 0) {
    checksum_ = ComputeChecksum();
    return;
  }
  record_keys_ = std::move(universe.record_keys);
  const size_t m = record_keys_.size();

  // Each temporary below is scoped to its step, so the peak footprint is
  // one step's scratch on top of the final arrays.
  {
    // 1. Union the match edges. Serial O(n alpha): the canonical
    //    renumbering below erases any dependence on union order.
    std::vector<uint32_t> parent(m);
    for (size_t r = 0; r < m; ++r) parent[r] = static_cast<uint32_t>(r);
    for (size_t i = 0; i < n; ++i) {
      if (labels[i] != 1) continue;
      const uint32_t a = Find(&parent, universe.left[i]);
      const uint32_t b = Find(&parent, universe.right[i]);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
    universe = {};

    // 2. Canonical entity ids: first appearance in ascending record order.
    entity_of_.assign(m, 0);
    std::vector<uint32_t> entity_of_root(m, UINT32_MAX);
    uint32_t next = 0;
    for (size_t r = 0; r < m; ++r) {
      const uint32_t root = Find(&parent, static_cast<uint32_t>(r));
      if (entity_of_root[root] == UINT32_MAX) entity_of_root[root] = next++;
      entity_of_[r] = entity_of_root[root];
    }
    num_entities_ = next;
  }

  // 3. CSR member lists: counting pass, prefix offsets, ascending scatter
  //    (records scanned in ascending key order land sorted within their
  //    entity automatically). The counts become the scatter cursors.
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
    members_[counts[entity_of_[r]]++] = record_keys_[r];
  }

  checksum_ = ComputeChecksum();
}

std::optional<uint32_t> EntityClustering::EntityOf(RecordRef record) const {
  const size_t idx = RecordIndexOf(record);
  if (idx >= record_keys_.size()) return std::nullopt;
  return entity_of_[idx];
}

EntityClustering::MemberRange EntityClustering::MembersOf(
    uint32_t entity) const {
  if (entity >= num_entities_) return {};
  const size_t begin = member_offsets_[entity];
  const size_t end = member_offsets_[entity + 1];
  return {members_.data() + begin, end - begin};
}

size_t EntityClustering::RecordIndexOf(RecordRef record) const {
  const uint64_t key = PackRecord(record);
  const auto it =
      std::lower_bound(record_keys_.begin(), record_keys_.end(), key);
  if (it == record_keys_.end() || *it != key) return record_keys_.size();
  return static_cast<size_t>(it - record_keys_.begin());
}

uint64_t EntityClustering::ComputeChecksum() const {
  uint64_t h = 1469598103934665603ULL;
  const auto mix64 = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  mix64(record_keys_.size());
  mix64(num_entities_);
  for (size_t r = 0; r < record_keys_.size(); ++r) {
    mix64(record_keys_[r]);
    mix64(entity_of_[r]);
  }
  return h;
}

}  // namespace humo::entity
