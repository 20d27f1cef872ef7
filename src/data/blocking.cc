#include "data/blocking.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "text/tokenizer.h"

namespace humo::data {
namespace {

/// Columnar pair sink used by the parallel blockers: each ParallelFor chunk
/// fills its own PairColumns, and the chunks are concatenated IN CHUNK-ID
/// ORDER afterwards — chunk boundaries depend only on (n, grain), so the
/// concatenation (and with it the final sorted workload) is bit-identical
/// at any thread count.
struct PairColumns {
  std::vector<uint32_t> lefts, rights;
  std::vector<double> sims;
  std::vector<uint8_t> labels;

  void Add(uint32_t l, uint32_t r, double s, bool match) {
    lefts.push_back(l);
    rights.push_back(r);
    sims.push_back(s);
    labels.push_back(match ? 1 : 0);
  }

  void Append(PairColumns&& other) {
    lefts.insert(lefts.end(), other.lefts.begin(), other.lefts.end());
    rights.insert(rights.end(), other.rights.begin(), other.rights.end());
    sims.insert(sims.end(), other.sims.begin(), other.sims.end());
    labels.insert(labels.end(), other.labels.begin(), other.labels.end());
  }
};

/// Left-table rows per scoring task. Small grains balance the skewed row
/// costs (a row's work is proportional to its candidate count).
constexpr size_t kThresholdGrain = 16;
constexpr size_t kTokenGrain = 64;

/// 64-bit mixing step (SplitMix64 finalizer) — the building block of the
/// MinHash hash family and band-key combiner. Pure integer: identical on
/// every platform.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// One MinHash function: parameters drawn from Rng::Stream(seed, h), so the
/// family is a pure function of the options seed.
struct MinHashFn {
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t operator()(uint32_t token_id) const {
    return Mix64((static_cast<uint64_t>(token_id) + b) * a);
  }
};

std::vector<MinHashFn> MakeHashFamily(const MinHashLshOptions& options) {
  const size_t H = options.bands * options.rows;
  std::vector<MinHashFn> fns(H);
  for (size_t h = 0; h < H; ++h) {
    Rng rng = Rng::Stream(options.seed, static_cast<uint64_t>(h));
    fns[h].a = rng.NextUint64() | 1;  // odd multiplier
    fns[h].b = rng.NextUint64();
  }
  return fns;
}

/// Smallest hash of a record's id set under each of the `count` functions
/// at `fns`, written to min1 (count long); with `min2 != nullptr` also the
/// second-smallest, written to min2, which feeds multi-probe (single-token
/// records have min2 == min1). The minima do not depend on whether min2 is
/// asked for.
void ComputeSignature(const uint32_t* ids, size_t n, const MinHashFn* fns,
                      size_t count, uint64_t* min1, uint64_t* min2) {
  for (size_t h = 0; h < count; ++h) {
    uint64_t m1 = UINT64_MAX, m2 = UINT64_MAX;
    if (min2 == nullptr) {
      for (size_t i = 0; i < n; ++i) m1 = std::min(m1, fns[h](ids[i]));
      min1[h] = m1;
      continue;
    }
    // Branch-free: which hash is smallest is a coin flip per id.
    for (size_t i = 0; i < n; ++i) {
      const uint64_t v = fns[h](ids[i]);
      m2 = std::min(m2, std::max(m1, v));
      m1 = std::min(m1, v);
    }
    if (m2 == UINT64_MAX) m2 = m1;
    min1[h] = m1;
    min2[h] = m2;
  }
}

/// Start of every key of band `band`: the band index is folded in so equal
/// row values in different bands do not alias.
uint64_t BandSeed(size_t band) { return Mix64(0x9E3779B97F4A7C15ULL + band); }

/// Key for probe `p` of the band with seed `seed`, from that band's `rows`
/// minima: rows are min1 values except that probe p >= 1 substitutes min2
/// in row p-1 (probe 0 never reads min2).
uint64_t BandKey(const uint64_t* min1, const uint64_t* min2, uint64_t seed,
                 size_t rows, size_t probe) {
  uint64_t key = seed;
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t v = (probe >= 1 && r == probe - 1) ? min2[r] : min1[r];
    key = Mix64(key ^ v);
  }
  return key;
}

/// The buckets of ONE band over the right table (canonical probe-0 keys;
/// multi-probe happens on the query side). `slots` is a power-of-two
/// open-addressed table (linear probing, load <= 1/2) from a bucket's key to
/// its first record; `next` links each record to the next of its bucket, in
/// record order. Most probes miss, and a miss that walks the slots costs
/// about two branch mispredictions, so a bit filter over the keys turns most
/// misses away first, without a branch. Build refills everything in place,
/// so one band's table is allocated once and reused for every band.
class BandTable {
 public:
  /// Buckets `records[i]` under `keys[i]`; records must be ascending and
  /// outlive the table's use.
  void Build(const std::vector<uint64_t>& keys,
             const std::vector<uint32_t>& records) {
    const size_t m = keys.size();
    records_ = &records;
    size_t capacity = 2;
    while (capacity < 2 * m) capacity <<= 1;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    // Eight filter bits per slot (at least one word), indexed by the key's
    // high bits; the slots use its low bits.
    int filter_bits = 6;
    while ((size_t{1} << filter_bits) < 8 * capacity) ++filter_bits;
    filter_shift_ = 64 - filter_bits;
    filter_.assign((size_t{1} << filter_bits) / 64, 0);
    // Last record first, each pushed at its bucket's head, so every bucket
    // lists its records in record order.
    next_.resize(m);
    for (size_t i = m; i-- > 0;) {
      size_t pos = keys[i] & mask_;
      while (slots_[pos].head != kNone && slots_[pos].key != keys[i]) {
        pos = (pos + 1) & mask_;
      }
      slots_[pos].key = keys[i];
      next_[i] = slots_[pos].head;
      slots_[pos].head = static_cast<uint32_t>(i);
      const uint64_t f = keys[i] >> filter_shift_;
      filter_[f >> 6] |= uint64_t{1} << (f & 63);
    }
  }

  /// False only when no bucket has key `key`; true for about one absent
  /// key in sixteen at half load.
  bool MayContain(uint64_t key) const {
    const uint64_t f = key >> filter_shift_;
    return (filter_[f >> 6] >> (f & 63)) & 1;
  }

  void Prefetch(uint64_t key) const {
    __builtin_prefetch(&slots_[key & mask_]);
  }

  /// Appends `(left << 32) | right` for every record of bucket `key`, if
  /// any, to `out`; returns whether the bucket exists.
  bool AppendBucket(uint64_t key, uint64_t left,
                    std::vector<uint64_t>* out) const {
    for (size_t pos = key & mask_;; pos = (pos + 1) & mask_) {
      const Slot& s = slots_[pos];
      if (s.head == kNone) return false;
      if (s.key == key) {
        for (uint32_t i = s.head; i != kNone; i = next_[i]) {
          out->push_back((left << 32) | (*records_)[i]);
        }
        return true;
      }
    }
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;  // empty slot, list end
  struct Slot {
    uint64_t key = 0;
    uint32_t head = kNone;  // index into records
  };
  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;
  const std::vector<uint32_t>* records_ = nullptr;
  std::vector<uint64_t> filter_;  // one bit set per bucket key
  size_t mask_ = 0;
  int filter_shift_ = 0;
};

/// Records per signature/probe task, and per filter and prefetch batch
/// within one.
constexpr size_t kLshGrain = 512;
constexpr size_t kProbeBatch = 32;

/// Reusable buffers of one band's join.
struct BandScratch {
  BandTable table;
  std::vector<uint64_t> right_keys;
  std::vector<std::vector<uint64_t>> chunks;  // per left-record task
  std::vector<uint64_t> pairs;  // sorted unique (left << 32) | right
};

/// The MinHash/LSH candidate join, one band at a time: Band(b) buckets the
/// right table's probe-0 keys of band b and probes every left record's keys,
/// hashing only band b's rows functions on either side.
class LshJoin {
 public:
  LshJoin(const RecordColumns& left, const RecordColumns& right,
          const MinHashLshOptions& options)
      : left_(left),
        right_(right),
        fns_(MakeHashFamily(options)),
        rows_(options.rows),
        probes_(std::max<size_t>(1, std::min(options.probes, 1 + rows_))) {
    // Record indices travel as uint32: halves of a packed pair, and a band
    // table's links, where UINT32_MAX marks an end. Abort in every build
    // type rather than wrap.
    if (left.num_records() > UINT32_MAX || right.num_records() > UINT32_MAX) {
      std::fprintf(stderr,
                   "MinHashLshCandidates: %zu left / %zu right records exceed "
                   "the uint32 record index\n",
                   left.num_records(), right.num_records());
      std::abort();
    }
    for (size_t r = 0; r < right.num_records(); ++r) {
      // Empty sets match nothing: never bucketed.
      if (right.num_ids(r) > 0) live_.push_back(static_cast<uint32_t>(r));
    }
  }

  /// Fills `s->pairs` with band `band`'s candidates, sorted and unique. A
  /// right record sits in one bucket per band, so a left record's distinct
  /// keys hit disjoint buckets: its pairs only need sorting. Left-record
  /// tasks are concatenated in task order, so the result is the same at
  /// any thread count.
  void Band(size_t band, BandScratch* s) const {
    const MinHashFn* fns = fns_.data() + band * rows_;
    const uint64_t seed = BandSeed(band);
    const size_t rows = rows_, probes = probes_, m = live_.size();
    const size_t n = left_.num_records();
    ThreadPool* pool = ThreadPool::Global();
    s->right_keys.resize(m);
    pool->ParallelFor(m, kLshGrain, [&](size_t begin, size_t end) {
      std::vector<uint64_t> min1(rows);
      for (size_t i = begin; i < end; ++i) {
        const uint32_t r = live_[i];
        ComputeSignature(right_.ids(r), right_.num_ids(r), fns, rows,
                         min1.data(), /*min2=*/nullptr);
        s->right_keys[i] =
            BandKey(min1.data(), /*min2=*/nullptr, seed, rows, /*probe=*/0);
      }
    });
    s->table.Build(s->right_keys, live_);
    // Cleared up front: a ParallelFor that runs inline fills only the
    // first task's vector.
    s->chunks.resize(n == 0 ? 0 : (n + kLshGrain - 1) / kLshGrain);
    for (std::vector<uint64_t>& c : s->chunks) c.clear();
    pool->ParallelFor(n, kLshGrain, [&](size_t begin, size_t end) {
      std::vector<uint64_t>& out = s->chunks[begin / kLshGrain];
      // Batch by batch: all keys first, kept only when the table's filter
      // lets them through, so the table sees about one probe in five, and
      // the home slot of each kept key prefetched so the misses overlap.
      std::vector<uint64_t> min1(rows), min2(rows),
          keys(kProbeBatch * probes);
      std::vector<uint32_t> lefts(kProbeBatch * probes);
      for (size_t lo = begin; lo < end; lo += kProbeBatch) {
        const size_t hi = std::min(end, lo + kProbeBatch);
        size_t kept = 0;
        for (size_t r = lo; r < hi; ++r) {
          const size_t n_ids = left_.num_ids(r);
          if (n_ids == 0) continue;
          ComputeSignature(left_.ids(r), n_ids, fns, rows, min1.data(),
                           min2.data());
          uint64_t* first = keys.data() + kept;
          for (size_t p = 0; p < probes; ++p) {
            const uint64_t key =
                BandKey(min1.data(), min2.data(), seed, rows, p);
            // Single-token records repeat the probe-0 key.
            if (std::find(first, keys.data() + kept, key) !=
                keys.data() + kept) {
              continue;
            }
            keys[kept] = key;
            lefts[kept] = static_cast<uint32_t>(r);
            kept += s->table.MayContain(key);  // branch-free
          }
        }
        for (size_t j = 0; j < kept; ++j) s->table.Prefetch(keys[j]);
        for (size_t j = 0; j < kept;) {
          const uint32_t r = lefts[j];
          const size_t first = out.size();
          size_t hits = 0;
          for (; j < kept && lefts[j] == r; ++j) {
            hits += s->table.AppendBucket(keys[j], r, &out);
          }
          if (hits > 1) std::sort(out.begin() + first, out.end());
        }
      }
    });
    s->pairs.clear();
    for (const std::vector<uint64_t>& c : s->chunks) {
      s->pairs.insert(s->pairs.end(), c.begin(), c.end());
    }
  }

 private:
  const RecordColumns& left_;
  const RecordColumns& right_;
  std::vector<uint32_t> live_;  // non-empty right records
  std::vector<MinHashFn> fns_;
  size_t rows_;
  size_t probes_;
};

Workload BuildWorkload(std::vector<PairColumns> chunks) {
  PairColumns all;
  size_t total = 0;
  for (const PairColumns& c : chunks) total += c.sims.size();
  all.lefts.reserve(total);
  all.rights.reserve(total);
  all.sims.reserve(total);
  all.labels.reserve(total);
  for (PairColumns& c : chunks) all.Append(std::move(c));
  return Workload::FromColumns(std::move(all.lefts), std::move(all.rights),
                               std::move(all.sims), std::move(all.labels));
}

}  // namespace

Workload ThresholdBlock(const RecordTable& left, const RecordTable& right,
                        const PairScorer& scorer, double threshold) {
  const size_t n = left.size();
  const size_t num_chunks =
      n == 0 ? 0 : (n + kThresholdGrain - 1) / kThresholdGrain;
  std::vector<PairColumns> chunks(num_chunks);
  ThreadPool::Global()->ParallelFor(
      n, kThresholdGrain, [&](size_t begin, size_t end) {
        PairColumns& out = chunks[begin / kThresholdGrain];
        for (size_t i = begin; i < end; ++i) {
          const Record& l = left[i];
          for (const auto& r : right.records()) {
            const double sim = scorer(l, r);
            if (sim >= threshold) {
              out.Add(l.id, r.id, sim, l.entity_id == r.entity_id);
            }
          }
        }
      });
  return BuildWorkload(std::move(chunks));
}

Workload TokenBlock(const RecordTable& left, const RecordTable& right,
                    size_t attribute_index, const PairScorer& scorer,
                    double threshold) {
  // Inverted index over the right table's blocking attribute (read-only
  // during the parallel scoring pass).
  std::unordered_map<std::string, std::vector<size_t>> index;
  for (size_t j = 0; j < right.size(); ++j) {
    const auto tokens = text::WordTokens(
        NormalizeForMatching(right[j].attributes[attribute_index]));
    std::unordered_set<std::string> seen;
    for (const auto& t : tokens) {
      if (seen.insert(t).second) index[t].push_back(j);
    }
  }

  const size_t n = left.size();
  const size_t num_chunks = n == 0 ? 0 : (n + kTokenGrain - 1) / kTokenGrain;
  std::vector<PairColumns> chunks(num_chunks);
  ThreadPool::Global()->ParallelFor(
      n, kTokenGrain, [&](size_t begin, size_t end) {
        PairColumns& out = chunks[begin / kTokenGrain];
        std::vector<size_t> candidates;
        for (size_t i = begin; i < end; ++i) {
          const auto tokens = text::WordTokens(
              NormalizeForMatching(left[i].attributes[attribute_index]));
          candidates.clear();
          std::unordered_set<std::string> seen;
          for (const auto& t : tokens) {
            if (!seen.insert(t).second) continue;
            const auto it = index.find(t);
            if (it == index.end()) continue;
            candidates.insert(candidates.end(), it->second.begin(),
                              it->second.end());
          }
          // Postings can overlap across tokens; sort+unique gives a
          // deterministic candidate order independent of hash iteration.
          std::sort(candidates.begin(), candidates.end());
          candidates.erase(
              std::unique(candidates.begin(), candidates.end()),
              candidates.end());
          for (size_t j : candidates) {
            const double sim = scorer(left[i], right[j]);
            if (sim >= threshold) {
              out.Add(left[i].id, right[j].id, sim,
                      left[i].entity_id == right[j].entity_id);
            }
          }
        }
      });
  return BuildWorkload(std::move(chunks));
}

LshCandidates MinHashLshCandidates(const RecordColumns& left_cols,
                                   const RecordColumns& right_cols,
                                   const MinHashLshOptions& options) {
  if (options.bands == 0 || options.rows == 0) return {};
  LshJoin join(left_cols, right_cols, options);
  // Bands run in rounds of one band per pool thread, each joined into its
  // own scratch, then merged into the sorted unique set. The set does not
  // depend on the rounds, so it is bit-identical at any thread count, and
  // live memory stays within one round's tables and band pairs.
  ThreadPool* pool = ThreadPool::Global();
  std::vector<BandScratch> scratch(
      std::min(pool->num_threads(), options.bands));
  std::vector<uint64_t> pairs, merged;
  for (size_t b0 = 0; b0 < options.bands; b0 += scratch.size()) {
    const size_t round = std::min(scratch.size(), options.bands - b0);
    pool->ParallelFor(round, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) join.Band(b0 + i, &scratch[i]);
    });
    for (size_t i = 0; i < round; ++i) {
      const std::vector<uint64_t>& band = scratch[i].pairs;
      merged.clear();
      merged.reserve(pairs.size() + band.size());
      std::set_union(pairs.begin(), pairs.end(), band.begin(), band.end(),
                     std::back_inserter(merged));
      pairs.swap(merged);
    }
  }

  LshCandidates all;
  all.left.reserve(pairs.size());
  all.right.reserve(pairs.size());
  for (const uint64_t pair : pairs) {
    all.left.push_back(static_cast<uint32_t>(pair >> 32));
    all.right.push_back(static_cast<uint32_t>(pair));
  }
  return all;
}

Workload MinHashLshBlock(const RecordTable& left, const RecordTable& right,
                         const RecordColumns& left_cols,
                         const RecordColumns& right_cols,
                         const MinHashLshOptions& options,
                         text::IdSetMetric metric, double threshold) {
  assert(left_cols.num_records() == left.size());
  assert(right_cols.num_records() == right.size());
  const LshCandidates cand = MinHashLshCandidates(left_cols, right_cols,
                                                  options);
  const size_t k = cand.left.size();
  std::vector<double> scores(k);
  BatchScorePairs(left_cols, right_cols, cand.left.data(), cand.right.data(),
                  k, metric, scores.data());
  PairColumns out;
  for (size_t c = 0; c < k; ++c) {
    if (scores[c] < threshold) continue;
    const Record& l = left[cand.left[c]];
    const Record& r = right[cand.right[c]];
    out.Add(l.id, r.id, scores[c], l.entity_id == r.entity_id);
  }
  return Workload::FromColumns(std::move(out.lefts), std::move(out.rights),
                               std::move(out.sims), std::move(out.labels));
}

Workload MinHashLshBlock(const RecordTable& left, const RecordTable& right,
                         size_t attribute_index,
                         const MinHashLshOptions& options, double threshold) {
  text::TokenDictionary dict;
  const RecordColumns left_cols =
      RecordColumns::Build(left, attribute_index, &dict);
  const RecordColumns right_cols =
      RecordColumns::Build(right, attribute_index, &dict);
  return MinHashLshBlock(left, right, left_cols, right_cols, options,
                         text::IdSetMetric::kJaccard, threshold);
}

double BlockingStats::ReductionRatio() const {
  if (total_possible_pairs == 0) return 0.0;
  return 1.0 - static_cast<double>(candidate_pairs) /
                   static_cast<double>(total_possible_pairs);
}

double BlockingStats::PairCompleteness() const {
  if (true_matches_total == 0) return 1.0;
  return static_cast<double>(true_matches_retained) /
         static_cast<double>(true_matches_total);
}

BlockingStats ComputeBlockingStats(const RecordTable& left,
                                   const RecordTable& right,
                                   const Workload& blocked) {
  BlockingStats s;
  s.candidate_pairs = blocked.size();
  s.total_possible_pairs = left.size() * right.size();
  for (const auto& l : left.records())
    for (const auto& r : right.records())
      if (l.entity_id == r.entity_id) ++s.true_matches_total;
  s.true_matches_retained = blocked.CountMatches();
  return s;
}

}  // namespace humo::data
