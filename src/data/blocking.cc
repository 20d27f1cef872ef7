#include "data/blocking.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
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

/// Smallest and second-smallest hash of a record's id set under every
/// function of the family, written to min1/min2 (each H long). The second
/// minimum feeds multi-probe; single-token records have min2 == min1. With
/// `min2 == nullptr` only the minima are computed (probe-0 keys never read
/// min2); they equal the two-output minima bit for bit.
void ComputeSignature(const uint32_t* ids, size_t n,
                      const std::vector<MinHashFn>& fns, uint64_t* min1,
                      uint64_t* min2) {
  const size_t H = fns.size();
  for (size_t h = 0; h < H; ++h) {
    uint64_t m1 = UINT64_MAX, m2 = UINT64_MAX;
    if (min2 == nullptr) {
      for (size_t i = 0; i < n; ++i) m1 = std::min(m1, fns[h](ids[i]));
      min1[h] = m1;
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t v = fns[h](ids[i]);
      if (v < m1) {
        m2 = m1;
        m1 = v;
      } else if (v < m2) {
        m2 = v;
      }
    }
    if (m2 == UINT64_MAX) m2 = m1;
    min1[h] = m1;
    min2[h] = m2;
  }
}

/// Key of band `b` for probe `p`: rows are min1 values except that probe
/// p >= 1 substitutes min2 in row p-1 (probe 0 never reads min2). The band
/// index is folded in so equal row values in different bands do not alias;
/// the index lookup compares the band anyway.
uint64_t BandKey(const uint64_t* min1, const uint64_t* min2, size_t band,
                 size_t rows, size_t probe) {
  uint64_t key = Mix64(0x9E3779B97F4A7C15ULL + band);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t v =
        (probe >= 1 && r == probe - 1) ? min2[band * rows + r]
                                       : min1[band * rows + r];
    key = Mix64(key ^ v);
  }
  return key;
}

/// Flat LSH buckets over the RIGHT table (canonical probe-0 keys only;
/// multi-probe happens on the query side).
///
/// `postings` lists every non-empty right record once per band, sorted by
/// (band, key, record): band b owns the segment [b * live, (b + 1) * live),
/// and each bucket is one contiguous run of it in record order. `slots` is
/// a power-of-two open-addressed table (linear probing, load <= 1/2) from a
/// bucket's key to its [begin, end) run; `end == 0` marks an empty slot.
/// AppendBucket matches a slot only when the key is equal AND the run lies
/// in the band's segment, so the candidate set equals per-band hash maps'
/// exactly, not merely up to a cross-band 64-bit key collision.
///
/// Offsets are uint32, so an index holds at most UINT32_MAX postings
/// (non-empty right records x bands); BuildLshIndex aborts beyond that in
/// every build type rather than wrap.
struct LshIndex {
  struct Slot {
    uint64_t key = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  std::vector<MinHashFn> fns;
  std::vector<uint32_t> postings;
  std::vector<Slot> slots;
  size_t live = 0;  // non-empty right records = postings per band
  size_t bands = 0;
  size_t rows = 0;
  size_t probes = 0;

  /// Appends the postings of bucket (band, key), if any, to `out`.
  void AppendBucket(size_t band, uint64_t key,
                    std::vector<uint32_t>* out) const {
    const size_t lo = band * live;
    const size_t hi = lo + live;
    const size_t mask = slots.size() - 1;
    for (size_t pos = key & mask;; pos = (pos + 1) & mask) {
      const Slot& s = slots[pos];
      if (s.end == 0) return;
      if (s.key == key && s.begin >= lo && s.begin < hi) {
        out->insert(out->end(), postings.data() + s.begin,
                    postings.data() + s.end);
        return;
      }
    }
  }
};

/// Records per signature/probe task.
constexpr size_t kLshGrain = 512;

/// One right record's probe-0 key in one band.
struct Entry {
  uint64_t key;
  uint32_t record;
};

/// 11-bit digits: 2048 counters per pass stay L1-resident; a 64-bit key
/// takes six passes, an even count, so the result lands back in place.
constexpr int kKeyDigitBits = 11;
constexpr size_t kKeyDigits = size_t{1} << kKeyDigitBits;
constexpr int kKeyPasses = (64 + kKeyDigitBits - 1) / kKeyDigitBits;
static_assert(kKeyPasses % 2 == 0, "SortByKey ends in its input buffer");

/// Stable LSD radix sort of `a[0, n)` by key, through `scratch` (n long).
/// Entries in record order come out in (key, record) order.
void SortByKey(Entry* a, Entry* scratch, size_t n) {
  std::vector<uint32_t> counts(kKeyPasses * kKeyDigits, 0);
  for (size_t i = 0; i < n; ++i) {
    for (int p = 0; p < kKeyPasses; ++p) {
      ++counts[p * kKeyDigits +
               ((a[i].key >> (p * kKeyDigitBits)) & (kKeyDigits - 1))];
    }
  }
  Entry* src = a;
  Entry* dst = scratch;
  for (int p = 0; p < kKeyPasses; ++p) {
    uint32_t* offsets = counts.data() + p * kKeyDigits;
    uint32_t running = 0;
    for (size_t d = 0; d < kKeyDigits; ++d) {
      const uint32_t c = offsets[d];
      offsets[d] = running;
      running += c;
    }
    const int shift = p * kKeyDigitBits;
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i].key >> shift) & (kKeyDigits - 1)]++] = src[i];
    }
    std::swap(src, dst);
  }
}

/// Requires bands > 0 and rows > 0 (MinHashLshCandidates returns early
/// otherwise).
LshIndex BuildLshIndex(const RecordColumns& right_cols,
                       const MinHashLshOptions& options) {
  LshIndex index;
  index.bands = options.bands;
  index.rows = options.rows;
  index.probes = std::max<size_t>(1, std::min(options.probes,
                                              1 + options.rows));
  index.fns = MakeHashFamily(options);
  const size_t H = index.fns.size();
  const size_t bands = index.bands;

  std::vector<uint32_t> live;  // empty sets match nothing: no postings
  for (size_t r = 0; r < right_cols.num_records(); ++r) {
    if (right_cols.num_ids(r) > 0) live.push_back(static_cast<uint32_t>(r));
  }
  const size_t m = live.size();
  if (m > UINT32_MAX / bands) {
    std::fprintf(stderr,
                 "MinHashLshBlock: %zu non-empty right records x %zu bands "
                 "exceeds the index's UINT32_MAX postings\n",
                 m, bands);
    std::abort();
  }
  index.live = m;

  // Probe-0 band keys in parallel, written band-major to index-addressed
  // entries, so band b's segment starts in record order; sorting each
  // segment by key then makes every bucket one record-ordered run.
  std::vector<Entry> entries(m * bands);
  ThreadPool::Global()->ParallelFor(
      m, kLshGrain, [&](size_t begin, size_t end) {
        std::vector<uint64_t> min1(H);
        for (size_t i = begin; i < end; ++i) {
          const uint32_t r = live[i];
          ComputeSignature(right_cols.ids(r), right_cols.num_ids(r),
                           index.fns, min1.data(), /*min2=*/nullptr);
          for (size_t b = 0; b < bands; ++b) {
            entries[b * m + i] = {BandKey(min1.data(), /*min2=*/nullptr, b,
                                          index.rows, /*probe=*/0),
                                  r};
          }
        }
      });
  std::vector<Entry> scratch(m);
  for (size_t b = 0; b < bands; ++b) {
    SortByKey(entries.data() + b * m, scratch.data(), m);
  }

  // A run (one bucket) ends at a key change or a band boundary. Count the
  // runs to size the table, then copy postings and insert each run's slot.
  const size_t total = entries.size();
  const auto run_ends_at = [&](size_t e) {
    return e + 1 == total || (e + 1) % m == 0 ||
           entries[e + 1].key != entries[e].key;
  };
  size_t runs = 0;
  for (size_t e = 0; e < total; ++e) runs += run_ends_at(e);
  size_t capacity = 1;
  while (capacity < 2 * runs) capacity <<= 1;
  index.slots.resize(capacity);
  index.postings.resize(total);
  const size_t mask = capacity - 1;
  size_t begin = 0;
  for (size_t e = 0; e < total; ++e) {
    index.postings[e] = entries[e].record;
    if (!run_ends_at(e)) continue;
    size_t pos = entries[e].key & mask;
    while (index.slots[pos].end != 0) pos = (pos + 1) & mask;
    index.slots[pos] = {entries[e].key, static_cast<uint32_t>(begin),
                        static_cast<uint32_t>(e + 1)};
    begin = e + 1;
  }
  return index;
}

/// Appends the sorted unique candidate right-record indices of left record
/// `r` to `candidates` (cleared first).
void ProbeRecord(const RecordColumns& left_cols, size_t r,
                 const LshIndex& index, std::vector<uint64_t>* sig_scratch,
                 std::vector<uint32_t>* candidates) {
  candidates->clear();
  const size_t n_ids = left_cols.num_ids(r);
  if (n_ids == 0) return;
  const size_t H = index.fns.size();
  const size_t P = index.probes;
  sig_scratch->resize(2 * H + index.bands * P);
  uint64_t* min1 = sig_scratch->data();
  uint64_t* min2 = min1 + H;
  uint64_t* keys = min2 + H;
  ComputeSignature(left_cols.ids(r), n_ids, index.fns, min1, min2);
  // All keys first, each home slot prefetched, so the table's cache misses
  // overlap instead of serializing lookup by lookup.
  const size_t mask = index.slots.size() - 1;
  for (size_t b = 0; b < index.bands; ++b) {
    for (size_t p = 0; p < P; ++p) {
      keys[b * P + p] = BandKey(min1, min2, b, index.rows, p);
      __builtin_prefetch(&index.slots[keys[b * P + p] & mask]);
    }
  }
  for (size_t b = 0; b < index.bands; ++b) {
    for (size_t p = 0; p < P; ++p) {
      index.AppendBucket(b, keys[b * P + p], candidates);
    }
  }
  std::sort(candidates->begin(), candidates->end());
  candidates->erase(std::unique(candidates->begin(), candidates->end()),
                    candidates->end());
}

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
  const LshIndex index = BuildLshIndex(right_cols, options);
  const size_t n = left_cols.num_records();
  const size_t num_chunks = n == 0 ? 0 : (n + kLshGrain - 1) / kLshGrain;
  std::vector<LshCandidates> chunks(num_chunks);
  ThreadPool::Global()->ParallelFor(
      n, kLshGrain, [&](size_t begin, size_t end) {
        LshCandidates& out = chunks[begin / kLshGrain];
        std::vector<uint64_t> sig_scratch;
        std::vector<uint32_t> cand;
        for (size_t r = begin; r < end; ++r) {
          ProbeRecord(left_cols, r, index, &sig_scratch, &cand);
          for (uint32_t j : cand) {
            out.left.push_back(static_cast<uint32_t>(r));
            out.right.push_back(j);
          }
        }
      });
  LshCandidates all;
  size_t total = 0;
  for (const LshCandidates& c : chunks) total += c.left.size();
  all.left.reserve(total);
  all.right.reserve(total);
  for (LshCandidates& c : chunks) {
    all.left.insert(all.left.end(), c.left.begin(), c.left.end());
    all.right.insert(all.right.end(), c.right.begin(), c.right.end());
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
