#include "entity/entity_clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/solution.h"
#include "data/workload.h"
#include "data/workload_stream.h"

namespace humo {
namespace {

using entity::ClusteringOptions;
using entity::EntityClustering;
using entity::PackRecord;
using entity::RecordRef;
using entity::UnpackRecord;

/// Two-table workload: L0-R0 match, L1-R0 match, L2-R1 non, L3-R2 match.
/// Entities: {L0, L1, R0}, {L2}, {L3, R2}, {R1}.
data::Workload TwoTableWorkload() {
  return data::Workload({{0, 0, 0.90, true},
                         {1, 0, 0.80, true},
                         {2, 1, 0.30, false},
                         {3, 2, 0.85, true}});
}

std::vector<int> TruthLabels(const data::Workload& w) {
  return w.GroundTruthLabels();
}

TEST(RecordRefTest, PackingPreservesLexicographicOrder) {
  const RecordRef a{0, 5}, b{1, 0}, c{1, 5};
  EXPECT_LT(PackRecord(a), PackRecord(b));
  EXPECT_LT(PackRecord(b), PackRecord(c));
  EXPECT_EQ(UnpackRecord(PackRecord(c)), c);
  EXPECT_TRUE((RecordRef{2, 3}) == (RecordRef{2, 3}));
  EXPECT_FALSE((RecordRef{2, 3}) == (RecordRef{3, 2}));
}

TEST(EntityClusteringTest, TwoTableConnectedComponents) {
  const data::Workload w = TwoTableWorkload();
  const EntityClustering c = EntityClustering::FromLabels(w, TruthLabels(w));

  EXPECT_EQ(c.num_records(), 7u);  // L0..L3 + R0..R2
  EXPECT_EQ(c.num_entities(), 4u);
  EXPECT_EQ(c.num_multi_record_entities(), 2u);

  // Canonical numbering: first appearance in ascending (source, id) order.
  EXPECT_EQ(c.EntityOf({0, 0}), std::optional<uint32_t>(0));
  EXPECT_EQ(c.EntityOf({0, 1}), std::optional<uint32_t>(0));
  EXPECT_EQ(c.EntityOf({1, 0}), std::optional<uint32_t>(0));
  EXPECT_EQ(c.EntityOf({0, 2}), std::optional<uint32_t>(1));
  EXPECT_EQ(c.EntityOf({0, 3}), std::optional<uint32_t>(2));
  EXPECT_EQ(c.EntityOf({1, 2}), std::optional<uint32_t>(2));
  EXPECT_EQ(c.EntityOf({1, 1}), std::optional<uint32_t>(3));
  EXPECT_EQ(c.EntityOf({5, 5}), std::nullopt);

  const EntityClustering::MemberRange big = c.MembersOf(0);
  ASSERT_EQ(big.size(), 3u);
  EXPECT_EQ(big[0], (RecordRef{0, 0}));
  EXPECT_EQ(big[1], (RecordRef{0, 1}));
  EXPECT_EQ(big[2], (RecordRef{1, 0}));
  EXPECT_TRUE(big.Contains({1, 0}));
  EXPECT_FALSE(big.Contains({1, 1}));
  EXPECT_EQ(c.EntitySize(0), 3u);
  EXPECT_EQ(c.EntitySize(1), 1u);
  EXPECT_TRUE(c.MembersOf(99).empty());
}

TEST(EntityClusteringTest, SingleSourceDedup) {
  // Dedup workload: both columns draw from one table.
  const data::Workload w({{0, 1, 0.9, true}, {1, 2, 0.8, true},
                          {3, 4, 0.2, false}});
  const ClusteringOptions dedup{0, 0};
  const EntityClustering c =
      EntityClustering::FromLabels(w, TruthLabels(w), dedup);
  EXPECT_EQ(c.num_records(), 5u);
  EXPECT_EQ(c.num_entities(), 3u);
  // Transitive closure through the chain 0-1-2.
  EXPECT_EQ(c.EntityOf({0, 0}), c.EntityOf({0, 2}));
  EXPECT_NE(c.EntityOf({0, 3}), c.EntityOf({0, 4}));
}

TEST(EntityClusteringTest, ChecksumSeparatesPartitions) {
  const data::Workload w = TwoTableWorkload();
  const EntityClustering truth = EntityClustering::FromLabels(w, TruthLabels(w));
  const EntityClustering none =
      EntityClustering::FromLabels(w, std::vector<int>(w.size(), 0));
  EXPECT_NE(truth, none);
  EXPECT_NE(truth.Checksum(), none.Checksum());
  EXPECT_EQ(none.num_entities(), none.num_records());
  EXPECT_EQ(none.num_multi_record_entities(), 0u);
}

TEST(EntityClusteringTest, RecordIndexRoundTrip) {
  const data::Workload w = TwoTableWorkload();
  const EntityClustering c = EntityClustering::FromLabels(w, TruthLabels(w));
  for (size_t r = 0; r < c.num_records(); ++r) {
    const RecordRef ref = UnpackRecord(c.record_keys()[r]);
    EXPECT_EQ(c.RecordIndexOf(ref), r);
    EXPECT_EQ(c.EntityOf(ref), std::optional<uint32_t>(c.entity_of_record()[r]));
    EXPECT_TRUE(c.MembersOf(c.entity_of_record()[r]).Contains(ref));
  }
  EXPECT_EQ(c.RecordIndexOf({9, 9}), c.num_records());
}

/// The clustering built the straightforward way: sort and dedup all 2n
/// endpoint keys, binary-search each endpoint, then the same union-find,
/// canonical renumbering and FNV-1a checksum as the library.
struct ReferenceClustering {
  std::vector<uint64_t> record_keys;
  std::vector<uint32_t> left_idx, right_idx;
  std::vector<uint32_t> entity_of;
  std::vector<std::vector<uint64_t>> members;
  uint64_t checksum = 0;
};

ReferenceClustering ReferenceFromLabels(const data::Workload& w,
                                        const std::vector<int>& labels,
                                        const ClusteringOptions& options) {
  ReferenceClustering out;
  const size_t n = w.size();
  const uint64_t left_src = static_cast<uint64_t>(options.left_source) << 32;
  const uint64_t right_src = static_cast<uint64_t>(options.right_source) << 32;
  std::vector<uint64_t>& keys = out.record_keys;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(left_src | w.left_id_data()[i]);
    keys.push_back(right_src | w.right_id_data()[i]);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const auto index_of = [&keys](uint64_t key) {
    return static_cast<uint32_t>(
        std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
  };
  for (size_t i = 0; i < n; ++i) {
    out.left_idx.push_back(index_of(left_src | w.left_id_data()[i]));
    out.right_idx.push_back(index_of(right_src | w.right_id_data()[i]));
  }

  const size_t m = keys.size();
  std::vector<uint32_t> parent(m);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&parent](uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] != 1) continue;
    const uint32_t a = find(out.left_idx[i]);
    const uint32_t b = find(out.right_idx[i]);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<uint32_t> entity_of_root(m, UINT32_MAX);
  for (size_t r = 0; r < m; ++r) {
    const uint32_t root = find(static_cast<uint32_t>(r));
    if (entity_of_root[root] == UINT32_MAX) {
      entity_of_root[root] = static_cast<uint32_t>(out.members.size());
      out.members.emplace_back();
    }
    out.entity_of.push_back(entity_of_root[root]);
    out.members[entity_of_root[root]].push_back(keys[r]);
  }

  // FNV-1a, one step per 64-bit word.
  uint64_t h = 0xcbf29ce484222325ULL;
  h = (h ^ m) * 0x100000001b3ULL;
  h = (h ^ out.members.size()) * 0x100000001b3ULL;
  for (size_t r = 0; r < m; ++r) {
    h = (h ^ keys[r]) * 0x100000001b3ULL;
    h = (h ^ out.entity_of[r]) * 0x100000001b3ULL;
  }
  out.checksum = h;
  return out;
}

/// n pairs whose ids are drawn from the given pools, with random
/// similarities (so the workload's sort scrambles draw order) and a random
/// match label at `match_rate`.
data::Workload PoolWorkload(size_t n, const std::vector<uint32_t>& left_pool,
                            const std::vector<uint32_t>& right_pool,
                            double match_rate, uint64_t seed) {
  Rng rng(seed);
  std::vector<data::InstancePair> pairs;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t l = left_pool[rng.NextBelow(left_pool.size())];
    const uint32_t r = right_pool[rng.NextBelow(right_pool.size())];
    pairs.push_back({l, r, rng.NextDouble(), rng.NextDouble() < match_rate});
  }
  return data::Workload(std::move(pairs));
}

/// `count` ids below 2^bits (all of [0, 2^32) for bits == 32), always
/// including 0 and the largest such id.
std::vector<uint32_t> IdPool(int bits, size_t count, uint64_t seed) {
  const uint32_t max_id =
      bits == 32 ? UINT32_MAX : static_cast<uint32_t>((1ULL << bits) - 1);
  Rng rng(seed);
  std::vector<uint32_t> pool = {0, max_id};
  while (pool.size() < count) {
    pool.push_back(static_cast<uint32_t>(rng.NextUint64() & max_id));
  }
  return pool;
}

/// n pairs whose left and right columns each span exactly
/// [lo, lo + span - 1]: the first two pairs put both ends in each column,
/// and every other id is drawn from the span.
data::Workload SpanWorkload(size_t n, uint32_t lo, uint64_t span,
                            uint64_t seed) {
  Rng rng(seed);
  const uint32_t hi = static_cast<uint32_t>(lo + (span - 1));
  const auto draw = [&] {
    return static_cast<uint32_t>(lo + rng.NextBelow(span));
  };
  std::vector<data::InstancePair> pairs = {
      {lo, hi, rng.NextDouble(), true}, {hi, lo, rng.NextDouble(), false}};
  while (pairs.size() < n) {
    pairs.push_back({draw(), draw(), rng.NextDouble(), rng.NextDouble() < 0.3});
  }
  return data::Workload(std::move(pairs));
}

void ExpectMatchesReference(const data::Workload& w,
                            const ClusteringOptions& options) {
  const std::vector<int> labels = w.GroundTruthLabels();
  const ReferenceClustering ref = ReferenceFromLabels(w, labels, options);

  const entity::RecordUniverse universe = entity::IndexRecords(w, options);
  EXPECT_EQ(*universe.record_keys, ref.record_keys);
  EXPECT_EQ(universe.left, ref.left_idx);
  EXPECT_EQ(universe.right, ref.right_idx);

  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool::SetGlobalThreads(threads);
    const EntityClustering c = EntityClustering::FromLabels(w, labels, options);
    EXPECT_EQ(c.record_keys(), ref.record_keys);
    EXPECT_EQ(c.entity_of_record(), ref.entity_of);
    ASSERT_EQ(c.num_entities(), ref.members.size());
    for (uint32_t e = 0; e < c.num_entities(); ++e) {
      const EntityClustering::MemberRange members = c.MembersOf(e);
      std::vector<uint64_t> keys;
      for (size_t k = 0; k < members.size(); ++k) {
        keys.push_back(PackRecord(members[k]));
      }
      EXPECT_EQ(keys, ref.members[e]);
    }
    EXPECT_EQ(c.Checksum(), ref.checksum);
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(EntityClusteringTest, MatchesSortAndBinarySearchReference) {
  const ClusteringOptions two_table{0, 1};
  const ClusteringOptions dedup{4, 4};
  {
    SCOPED_TRACE("empty and single pair");
    ExpectMatchesReference(data::Workload(), two_table);
    ExpectMatchesReference(data::Workload({{3, 7, 0.5, true}}), two_table);
    ExpectMatchesReference(data::Workload({{7, 7, 0.5, false}}), dedup);
  }
  {
    SCOPED_TRACE("all ids 0: one-slot rank tables");
    const data::Workload w({{0, 0, 0.1, true}, {0, 0, 0.2, false}});
    ExpectMatchesReference(w, two_table);
    ExpectMatchesReference(w, dedup);
  }
  {
    SCOPED_TRACE("shared sparse span, left ids all 0: zero radix passes");
    const data::Workload w({{0, 1u << 30, 0.1, true},
                            {0, 5, 0.2, true},
                            {0, UINT32_MAX, 0.3, false}});
    ExpectMatchesReference(w, dedup);
  }
  {
    // A table over [0, max id] would take 16 GB.
    SCOPED_TRACE("dense span ending at UINT32_MAX");
    const data::Workload w = SpanWorkload(3000, UINT32_MAX - 4095, 4096, 11);
    ExpectMatchesReference(w, two_table);
    ExpectMatchesReference(w, dedup);
    ExpectMatchesReference(w, ClusteringOptions{7, 3});
  }
  // Spans around the dense/sparse threshold: a two-table column ranks n
  // endpoints, a shared source 2n.
  constexpr size_t kPairs = 1000;
  constexpr uint64_t kLimit = entity::kDenseSpanPerEndpoint;
  for (const int64_t delta : {-1, 0, 1}) {
    SCOPED_TRACE(delta);
    const uint32_t lo = 12345;
    ExpectMatchesReference(
        SpanWorkload(kPairs, lo, kLimit * kPairs + delta, 21), two_table);
    ExpectMatchesReference(
        SpanWorkload(kPairs, lo, kLimit * kPairs + delta, 22),
        ClusteringOptions{1, 0});
    ExpectMatchesReference(
        SpanWorkload(kPairs, lo, 2 * kLimit * kPairs + delta, 23), dedup);
  }
  for (const int bits : {11, 22, 32}) {
    SCOPED_TRACE(bits);
    const data::Workload w =
        PoolWorkload(3000, IdPool(bits, 900, bits), IdPool(bits, 700, bits + 1),
                     0.3, 100 + bits);
    ExpectMatchesReference(w, two_table);
    ExpectMatchesReference(w, dedup);
  }
  {
    SCOPED_TRACE("left_source > right_source");
    const data::Workload w = PoolWorkload(2000, IdPool(32, 400, 1),
                                          IdPool(32, 400, 1), 0.4, 7);
    ExpectMatchesReference(w, ClusteringOptions{1, 0});
    ExpectMatchesReference(w, ClusteringOptions{9, 2});
    ExpectMatchesReference(w, ClusteringOptions{UINT32_MAX, 0});
  }
  {
    SCOPED_TRACE("one source: self-pairs and duplicate pairs");
    const data::Workload w({{5, 5, 0.9, true},
                            {5, 5, 0.3, false},
                            {2, 5, 0.8, true},
                            {2, 5, 0.8, false},
                            {5, 2, 0.4, true},
                            {UINT32_MAX, UINT32_MAX, 0.6, false},
                            {UINT32_MAX, 2, 0.7, true}});
    ExpectMatchesReference(w, dedup);
    ExpectMatchesReference(w, ClusteringOptions{UINT32_MAX, UINT32_MAX});
  }
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<uint32_t> sparse(1500);
    for (uint32_t& id : sparse) id = static_cast<uint32_t>(rng.NextUint64());
    const data::Workload w = PoolWorkload(
        500 * seed, sparse, sparse, 0.1 * static_cast<double>(seed), seed);
    ExpectMatchesReference(w, two_table);
    ExpectMatchesReference(w, dedup);
  }
}

/// Grows a workload from `start` shard by shard the way the streaming
/// resolver does (Workload::MergeSorted) and checks after every shard that
/// extending the previous universe by the positions the merge returned
/// equals indexing the grown workload cold.
void ExpectExtensionMatchesIndex(const data::Workload& start,
                                 const data::Workload& base,
                                 const data::WorkloadStreamOptions& stream,
                                 const ClusteringOptions& options) {
  const data::WorkloadStream shards(&base, stream);
  data::Workload grown = start;
  entity::RecordUniverse universe = entity::IndexRecords(grown, options);
  for (size_t e = 0; e < shards.num_shards(); ++e) {
    SCOPED_TRACE(e);
    const std::vector<size_t> landed =
        grown.MergeSorted(shards.ShardAt(e).pairs);
    universe = entity::ExtendRecords(universe, grown, landed, options);
    const entity::RecordUniverse cold = entity::IndexRecords(grown, options);
    ASSERT_EQ(*universe.record_keys, *cold.record_keys);
    ASSERT_EQ(universe.left, cold.left);
    ASSERT_EQ(universe.right, cold.right);
  }
}

TEST(EntityClusteringTest, ExtendedUniverseEqualsColdIndex) {
  // Small pools force duplicate (left, right) pairs within and across
  // shards; the 32-bit pool puts ids at 0 and 2^32 - 1.
  const std::vector<uint32_t> wide = IdPool(32, 300, 7);
  const std::vector<uint32_t> narrow = IdPool(11, 40, 8);
  std::vector<data::InstancePair> pairs =
      PoolWorkload(3000, wide, narrow, 0.3, 9).MaterializePairs();
  // Exact duplicates: same ids, similarity and label.
  for (size_t i = 0; i < 200; ++i) pairs.push_back(pairs[i * 7]);
  const data::Workload base(std::move(pairs));
  const data::Workload one_pair({{UINT32_MAX, 0, 0.5, true}});

  for (const data::ArrivalOrder order :
       {data::ArrivalOrder::kShuffled, data::ArrivalOrder::kRoundRobin,
        data::ArrivalOrder::kSimilarityAscending}) {
    for (const ClusteringOptions options :
         {ClusteringOptions{0, 1}, ClusteringOptions{4, 4}}) {
      SCOPED_TRACE(::testing::Message()
                   << "order " << static_cast<int>(order) << " sources "
                   << options.left_source << "," << options.right_source);
      data::WorkloadStreamOptions stream;
      stream.num_shards = 9;
      stream.order = order;
      ExpectExtensionMatchesIndex(data::Workload(), base, stream, options);
      ExpectExtensionMatchesIndex(one_pair, base, stream, options);
    }
  }
}

TEST(EntityClusteringTest, ExtendRecordsHandlesUnchangedAndUnrelatedWorkloads) {
  const ClusteringOptions two_table{0, 1};
  const data::Workload w = TwoTableWorkload();
  const entity::RecordUniverse universe = entity::IndexRecords(w, two_table);
  {
    SCOPED_TRACE("nothing landed");
    const entity::RecordUniverse same =
        entity::ExtendRecords(universe, w, {}, two_table);
    EXPECT_EQ(*same.record_keys, *universe.record_keys);
    EXPECT_EQ(same.left, universe.left);
    EXPECT_EQ(same.right, universe.right);
  }
}

TEST(EntityClusteringTest, FromUniverseSharesKeysAndEqualsFromLabels) {
  const std::vector<uint32_t> left = IdPool(22, 200, 3);
  const std::vector<uint32_t> right = IdPool(22, 200, 4);
  const data::Workload sparse = PoolWorkload(800, left, right, 0.4, 5);
  const data::Workload dense = SpanWorkload(800, 50, 900, 6);
  for (const data::Workload* w : {&sparse, &dense}) {
    for (const ClusteringOptions options :
         {ClusteringOptions{4, 4}, ClusteringOptions{0, 1}}) {
      SCOPED_TRACE(::testing::Message()
                   << (w == &sparse ? "sparse" : "dense") << " sources "
                   << options.left_source << "," << options.right_source);
      const entity::RecordUniverse universe = entity::IndexRecords(*w, options);
      const std::vector<int> labels = w->GroundTruthLabels();
      const EntityClustering a =
          EntityClustering::FromUniverse(universe, labels);
      const EntityClustering b = EntityClustering::FromUniverse(
          universe, std::vector<int>(w->size(), 0));
      const EntityClustering cold =
          EntityClustering::FromLabels(*w, labels, options);
      EXPECT_EQ(a, cold);
      EXPECT_EQ(a.Checksum(), cold.Checksum());
      EXPECT_EQ(&a.record_keys(), universe.record_keys.get());
      EXPECT_EQ(&b.record_keys(), universe.record_keys.get());
      EXPECT_EQ(b.num_entities(), b.num_records());
      // The universe stays intact for the next clustering.
      EXPECT_EQ(universe.left.size(), w->size());
    }
  }
}

}  // namespace
}  // namespace humo
