#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/blocking.h"
#include "data/record_columns.h"
#include "data/scale_generator.h"
#include "text/token_similarity.h"

namespace humo::data {
namespace {

double NameScorer(const Record& a, const Record& b) {
  return text::JaccardSimilarity(a.attributes[1], b.attributes[1]);
}

ScaleTables PerturbedTables(size_t groups) {
  ScaleTablesConfig config;
  config.groups = groups;
  config.left_per_group = 8;
  config.right_per_group = 8;
  config.match_fraction = 0.05;
  config.perturb_names = true;
  config.perturbation = LightPerturbation();
  return GenerateScaleTables(config);
}

/// Matched (left id, right id) pairs of a workload.
std::set<std::pair<uint32_t, uint32_t>> MatchedPairs(const Workload& w) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (size_t i = 0; i < w.size(); ++i) {
    if (w.IsMatch(i)) out.insert({w[i].left_id, w[i].right_id});
  }
  return out;
}

TEST(MinHashLshBlockTest, RecallAgainstExactTokenBlock) {
  const ScaleTables tables = PerturbedTables(/*groups=*/96);
  constexpr double kThreshold = 0.2;

  // Exact baseline: token blocking on the group key retains every in-group
  // pair above the scoring threshold.
  const Workload exact =
      TokenBlock(tables.left, tables.right, 0, NameScorer, kThreshold);
  const auto exact_matches = MatchedPairs(exact);
  ASSERT_FALSE(exact_matches.empty());

  const Workload lsh =
      MinHashLshBlock(tables.left, tables.right, 1, MinHashLshOptions{},
                      kThreshold);
  const auto lsh_matches = MatchedPairs(lsh);
  size_t retained = 0;
  for (const auto& p : exact_matches) retained += lsh_matches.count(p);
  const double recall =
      static_cast<double>(retained) / static_cast<double>(exact_matches.size());
  EXPECT_GE(recall, 0.95) << retained << "/" << exact_matches.size();
}

TEST(MinHashLshBlockTest, ScoresMatchStringJaccardBitwise) {
  const ScaleTables tables = PerturbedTables(/*groups=*/24);
  const Workload lsh =
      MinHashLshBlock(tables.left, tables.right, 1, MinHashLshOptions{}, 0.2);
  ASSERT_GT(lsh.size(), 0u);
  for (size_t i = 0; i < lsh.size(); ++i) {
    const InstancePair p = lsh[i];
    EXPECT_EQ(p.similarity, NameScorer(tables.left[p.left_id],
                                       tables.right[p.right_id]))
        << "pair " << i;
  }
}

TEST(MinHashLshBlockTest, BitIdenticalAcrossThreadCounts) {
  const ScaleTables tables = PerturbedTables(/*groups=*/48);
  ThreadPool::SetGlobalThreads(1);
  const Workload w1 =
      MinHashLshBlock(tables.left, tables.right, 1, MinHashLshOptions{}, 0.2);
  ThreadPool::SetGlobalThreads(4);
  const Workload w4 =
      MinHashLshBlock(tables.left, tables.right, 1, MinHashLshOptions{}, 0.2);
  ThreadPool::SetGlobalThreads(0);
  ASSERT_EQ(w1.size(), w4.size());
  EXPECT_EQ(w1.similarities(), w4.similarities());
  EXPECT_EQ(w1.left_ids(), w4.left_ids());
  EXPECT_EQ(w1.right_ids(), w4.right_ids());
  EXPECT_EQ(w1.match_labels(), w4.match_labels());
}

TEST(MinHashLshCandidatesTest, CandidatesDeterministicAcrossThreadCounts) {
  const ScaleTables tables = PerturbedTables(/*groups=*/48);
  text::TokenDictionary dict;
  const RecordColumns left = RecordColumns::Build(tables.left, 1, &dict);
  const RecordColumns right = RecordColumns::Build(tables.right, 1, &dict);
  ThreadPool::SetGlobalThreads(1);
  const LshCandidates c1 = MinHashLshCandidates(left, right,
                                                MinHashLshOptions{});
  ThreadPool::SetGlobalThreads(4);
  const LshCandidates c4 = MinHashLshCandidates(left, right,
                                                MinHashLshOptions{});
  ThreadPool::SetGlobalThreads(0);
  EXPECT_EQ(c1.left, c4.left);
  EXPECT_EQ(c1.right, c4.right);
}

TEST(MinHashLshCandidatesTest, MoreProbesNeverLoseCandidates) {
  const ScaleTables tables = PerturbedTables(/*groups=*/24);
  text::TokenDictionary dict;
  const RecordColumns left = RecordColumns::Build(tables.left, 1, &dict);
  const RecordColumns right = RecordColumns::Build(tables.right, 1, &dict);
  MinHashLshOptions one_probe;
  one_probe.probes = 1;
  MinHashLshOptions three_probes;
  three_probes.probes = 3;
  const LshCandidates few = MinHashLshCandidates(left, right, one_probe);
  const LshCandidates many = MinHashLshCandidates(left, right, three_probes);
  EXPECT_GE(many.left.size(), few.left.size());
  std::set<std::pair<uint32_t, uint32_t>> many_set;
  for (size_t i = 0; i < many.left.size(); ++i) {
    many_set.insert({many.left[i], many.right[i]});
  }
  for (size_t i = 0; i < few.left.size(); ++i) {
    EXPECT_TRUE(many_set.count({few.left[i], few.right[i]}))
        << "probe-1 candidate " << i << " lost at probes=3";
  }
}

TEST(MinHashLshBlockTest, EmptyTablesAndEmptyValues) {
  RecordTable left({"key", "name"});
  RecordTable right({"key", "name"});
  // Empty tables: empty workload.
  const Workload empty =
      MinHashLshBlock(left, right, 1, MinHashLshOptions{}, 0.1);
  EXPECT_EQ(empty.size(), 0u);

  // Records with empty token sets never enter buckets (and never pair).
  ASSERT_TRUE(left.Add({0, 0, {"k", ""}}).ok());
  ASSERT_TRUE(left.Add({1, 1, {"k", "solid name"}}).ok());
  ASSERT_TRUE(right.Add({0, 0, {"k", ""}}).ok());
  ASSERT_TRUE(right.Add({1, 1, {"k", "solid name"}}).ok());
  const Workload w =
      MinHashLshBlock(left, right, 1, MinHashLshOptions{}, 0.1);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_NE(w[i].left_id, 0u);
    EXPECT_NE(w[i].right_id, 0u);
  }
  // The identical non-empty names must collide in every band.
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].similarity, 1.0);
}

TEST(MinHashLshBlockTest, SingletonAndAllIdenticalTables) {
  RecordTable left({"key", "name"});
  RecordTable right({"key", "name"});
  ASSERT_TRUE(left.Add({0, 7, {"k", "lonely record"}}).ok());
  ASSERT_TRUE(right.Add({0, 7, {"k", "lonely record"}}).ok());
  const Workload single =
      MinHashLshBlock(left, right, 1, MinHashLshOptions{}, 0.5);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_TRUE(single[0].is_match);

  RecordTable lmany({"key", "name"});
  RecordTable rmany({"key", "name"});
  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(lmany.Add({i, i, {"k", "same exact words"}}).ok());
    ASSERT_TRUE(rmany.Add({i, i, {"k", "same exact words"}}).ok());
  }
  // All-identical: every record shares every bucket; full cross product.
  const Workload all =
      MinHashLshBlock(lmany, rmany, 1, MinHashLshOptions{}, 0.5);
  EXPECT_EQ(all.size(), 20u * 20u);
}

TEST(MinHashLshBlockTest, SeedChangesBucketsButDeterministically) {
  const ScaleTables tables = PerturbedTables(/*groups=*/16);
  MinHashLshOptions a;
  MinHashLshOptions b;
  b.seed = 0xDEADBEEFULL;
  const Workload wa1 =
      MinHashLshBlock(tables.left, tables.right, 1, a, 0.2);
  const Workload wa2 =
      MinHashLshBlock(tables.left, tables.right, 1, a, 0.2);
  // Same options: bit-identical reruns.
  EXPECT_EQ(wa1.similarities(), wa2.similarities());
  EXPECT_EQ(wa1.left_ids(), wa2.left_ids());
  const Workload wb = MinHashLshBlock(tables.left, tables.right, 1, b, 0.2);
  // A different seed is a different hash family; output remains a valid
  // workload (sorted, same scoring) even if the candidate set differs.
  for (size_t i = 1; i < wb.size(); ++i) {
    EXPECT_LE(wb.Similarity(i - 1), wb.Similarity(i));
  }
}

TEST(MinHashLshCandidatesTest, ZeroBandsOrRowsYieldNoCandidates) {
  // Zero rows would give every record one constant key per band (the full
  // cross product); zero bands gives no buckets. Both are empty in every
  // build type.
  RecordTable left({"key", "name"});
  RecordTable right({"key", "name"});
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(left.Add({i, i, {"k", "shared words " + std::to_string(i)}})
                    .ok());
    ASSERT_TRUE(right.Add({i, i, {"k", "shared words " + std::to_string(i)}})
                    .ok());
  }
  text::TokenDictionary dict;
  const RecordColumns lcols = RecordColumns::Build(left, 1, &dict);
  const RecordColumns rcols = RecordColumns::Build(right, 1, &dict);
  MinHashLshOptions no_rows;
  no_rows.rows = 0;
  MinHashLshOptions no_bands;
  no_bands.bands = 0;
  for (const MinHashLshOptions& options : {no_rows, no_bands}) {
    const LshCandidates c = MinHashLshCandidates(lcols, rcols, options);
    EXPECT_TRUE(c.left.empty());
    EXPECT_TRUE(c.right.empty());
    EXPECT_EQ(MinHashLshBlock(left, right, 1, options, 0.0).size(), 0u);
  }
}

/// Independent reference blocker: one unordered_map per band from band key
/// to record-ordered postings, built over the whole right table up front,
/// and every left record probed across all bands at once with find. The
/// hash family, signatures and band keys repeat the library's definitions,
/// so candidates must agree exactly with the band-at-a-time join.
namespace reference {

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct HashFn {
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t operator()(uint32_t id) const {
    return Mix64((static_cast<uint64_t>(id) + b) * a);
  }
};

void Signature(const uint32_t* ids, size_t n, const std::vector<HashFn>& fns,
               uint64_t* min1, uint64_t* min2) {
  for (size_t h = 0; h < fns.size(); ++h) {
    uint64_t m1 = UINT64_MAX, m2 = UINT64_MAX;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t v = fns[h](ids[i]);
      if (v < m1) {
        m2 = m1;
        m1 = v;
      } else if (v < m2) {
        m2 = v;
      }
    }
    min1[h] = m1;
    min2[h] = m2 == UINT64_MAX ? m1 : m2;
  }
}

uint64_t BandKey(const uint64_t* min1, const uint64_t* min2, size_t band,
                 size_t rows, size_t probe) {
  uint64_t key = Mix64(0x9E3779B97F4A7C15ULL + band);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t v = (probe >= 1 && r == probe - 1) ? min2[band * rows + r]
                                                      : min1[band * rows + r];
    key = Mix64(key ^ v);
  }
  return key;
}

LshCandidates Candidates(const RecordColumns& left, const RecordColumns& right,
                         const MinHashLshOptions& options) {
  const size_t bands = options.bands, rows = options.rows;
  const size_t probes = std::max<size_t>(1, std::min(options.probes, 1 + rows));
  std::vector<HashFn> fns(bands * rows);
  for (size_t h = 0; h < fns.size(); ++h) {
    Rng rng = Rng::Stream(options.seed, static_cast<uint64_t>(h));
    fns[h].a = rng.NextUint64() | 1;
    fns[h].b = rng.NextUint64();
  }
  std::vector<uint64_t> min1(fns.size()), min2(fns.size());
  std::vector<std::unordered_map<uint64_t, std::vector<uint32_t>>> buckets(
      bands);
  for (size_t r = 0; r < right.num_records(); ++r) {
    if (right.num_ids(r) == 0) continue;
    Signature(right.ids(r), right.num_ids(r), fns, min1.data(), min2.data());
    for (size_t b = 0; b < bands; ++b) {
      buckets[b][BandKey(min1.data(), min2.data(), b, rows, 0)].push_back(
          static_cast<uint32_t>(r));
    }
  }
  LshCandidates out;
  std::vector<uint32_t> cand;
  for (size_t r = 0; r < left.num_records(); ++r) {
    if (left.num_ids(r) == 0) continue;
    Signature(left.ids(r), left.num_ids(r), fns, min1.data(), min2.data());
    cand.clear();
    for (size_t b = 0; b < bands; ++b) {
      for (size_t p = 0; p < probes; ++p) {
        const auto it =
            buckets[b].find(BandKey(min1.data(), min2.data(), b, rows, p));
        if (it == buckets[b].end()) continue;
        cand.insert(cand.end(), it->second.begin(), it->second.end());
      }
    }
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    for (uint32_t j : cand) {
      out.left.push_back(static_cast<uint32_t>(r));
      out.right.push_back(j);
    }
  }
  return out;
}

}  // namespace reference

/// Appends, to both tables: records with empty values, single-token
/// records, an all-identical block (one long posting list per band), and
/// "alpha beta" before "beta" and "alpha": in a band where alpha hashes
/// lower, the left "alpha beta" finds both alphas at probe 0 and the
/// in-between "beta" at probe 1, two buckets out of record order.
void AddEdgeRecords(RecordTable* left, RecordTable* right) {
  const auto add = [](RecordTable* t, uint32_t entity, std::string name) {
    const uint32_t id = static_cast<uint32_t>(t->size());
    ASSERT_TRUE(t->Add({id, entity, {"k", std::move(name)}}).ok());
  };
  for (RecordTable* t : {left, right}) {
    for (uint32_t i = 0; i < 3; ++i) add(t, 900000 + i, "");
    for (const char* word : {"solo", "alpha", "solo", "omega"}) {
      add(t, 910000, word);
    }
    for (uint32_t i = 0; i < 40; ++i) add(t, 920000, "same exact words");
    for (const char* name : {"alpha beta", "beta", "alpha"}) {
      add(t, 930000, name);
    }
  }
}

/// Adds one record per name to `t`, entity ids running from `entity`.
void AddNames(RecordTable* t, uint32_t entity,
              const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    const uint32_t id = static_cast<uint32_t>(t->size());
    ASSERT_TRUE(t->Add({id, entity++, {"k", name}}).ok());
  }
}

/// Checks MinHashLshCandidates against the reference at 1 and 4 pool
/// threads, two seeds and every bands x rows x probes of the grid. At 4
/// threads, 5 bands run as a round of four and a round of one.
void ExpectMatchesReference(const RecordTable& left_table,
                            const RecordTable& right_table) {
  text::TokenDictionary dict;
  const RecordColumns left = RecordColumns::Build(left_table, 1, &dict);
  const RecordColumns right = RecordColumns::Build(right_table, 1, &dict);
  for (const size_t threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    for (const uint64_t seed : {0x15481D3AULL, 0xDEADBEEFULL}) {
      for (const size_t bands : {1, 4, 5, 16}) {
        for (const size_t rows : {1, 2, 3}) {
          for (const size_t probes : {size_t{1}, size_t{2}, 1 + rows}) {
            MinHashLshOptions options;
            options.seed = seed;
            options.bands = bands;
            options.rows = rows;
            options.probes = probes;
            const LshCandidates want =
                reference::Candidates(left, right, options);
            const LshCandidates got =
                MinHashLshCandidates(left, right, options);
            ASSERT_FALSE(want.left.empty());
            EXPECT_EQ(got.left, want.left)
                << "threads " << threads << " seed " << seed << " bands "
                << bands << " rows " << rows << " probes " << probes;
            EXPECT_EQ(got.right, want.right)
                << "threads " << threads << " seed " << seed << " bands "
                << bands << " rows " << rows << " probes " << probes;
          }
        }
      }
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(MinHashLshCandidatesTest, MatchesPerBandHashMapReference) {
  ScaleTables tables = PerturbedTables(/*groups=*/12);
  AddEdgeRecords(&tables.left, &tables.right);
  ExpectMatchesReference(tables.left, tables.right);
}

TEST(MinHashLshCandidatesTest, MatchesReferenceOnUnequalTables) {
  // The edge-record tables against the first 30 records of their right
  // table, both ways round.
  ScaleTables tables = PerturbedTables(/*groups=*/12);
  AddEdgeRecords(&tables.left, &tables.right);
  RecordTable right({"key", "name"});
  for (size_t r = 0; r < 30; ++r) {
    Record rec = tables.right[r];
    rec.id = static_cast<uint32_t>(r);
    ASSERT_TRUE(right.Add(std::move(rec)).ok());
  }
  ExpectMatchesReference(tables.left, right);
  ExpectMatchesReference(right, tables.left);
}

TEST(MinHashLshCandidatesTest, MatchesReferenceOnSingleTokenLeftTable) {
  // Every non-empty left record is one token, so min2 == min1 in every row
  // and each probe p >= 1 repeats the probe-0 key.
  RecordTable left({"key", "name"});
  RecordTable right({"key", "name"});
  AddNames(&left, 0,
           {"", "solo", "alpha", "", "omega", "solo", "beta", "gamma", ""});
  AddNames(&right, 0,
           {"solo", "alpha beta", "omega", "", "solo gamma", "alpha",
            "delta", "beta omega solo"});
  ExpectMatchesReference(left, right);
}

TEST(MinHashLshCandidatesTest, AllIdenticalBlockYieldsFullCrossProduct) {
  // 200 x 200 identical records share one bucket in every band, so 16
  // bands x 3 probes find each pair once per band, deduplicated to one.
  RecordTable left({"key", "name"});
  RecordTable right({"key", "name"});
  const std::vector<std::string> same(200, "same exact words");
  AddNames(&left, 0, same);
  AddNames(&right, 0, same);
  ExpectMatchesReference(left, right);
  text::TokenDictionary dict;
  const RecordColumns lcols = RecordColumns::Build(left, 1, &dict);
  const RecordColumns rcols = RecordColumns::Build(right, 1, &dict);
  MinHashLshOptions options;
  options.probes = 3;
  ASSERT_EQ(options.bands, 16u);
  for (const size_t threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    EXPECT_EQ(MinHashLshCandidates(lcols, rcols, options).left.size(),
              200u * 200u)
        << "threads " << threads;
  }
  ThreadPool::SetGlobalThreads(0);
}

}  // namespace
}  // namespace humo::data
