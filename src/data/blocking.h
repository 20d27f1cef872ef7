#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/record.h"
#include "data/record_columns.h"
#include "data/workload.h"

namespace humo::data {

/// Pair scorer: similarity of two records in [0,1]. Blocking runs scorers
/// in parallel on the global thread pool, so a scorer must be pure (no
/// shared mutable state); every blocker below produces bit-identical
/// workloads at any thread count (chunk outputs are concatenated in
/// deterministic chunk order before the final sort).
using PairScorer = std::function<double(const Record&, const Record&)>;

/// Exhaustive cross-product scoring with a similarity-threshold filter —
/// the blocking the paper applies (sim >= 0.2 on DS, >= 0.05 on AB).
/// Quadratic; fine for generator-scale tables, and the token blocker below
/// is the scalable path.
Workload ThresholdBlock(const RecordTable& left, const RecordTable& right,
                        const PairScorer& scorer, double threshold);

/// Token-based blocking: candidate pairs must share at least one token in
/// the chosen blocking attribute. Avoids the full cross product, then
/// applies the same similarity threshold to the candidates.
///
/// `attribute_index` selects the blocking key column in both schemas.
Workload TokenBlock(const RecordTable& left, const RecordTable& right,
                    size_t attribute_index, const PairScorer& scorer,
                    double threshold);

/// Knobs of the MinHash/LSH blocker. With b bands of r rows each, a pair of
/// Jaccard similarity s lands in at least one shared bucket with
/// probability 1 - (1 - s^r)^b; the defaults (16 x 2) put the S-curve's
/// knee near s ~ 0.25, which keeps recall on real match pairs (s >= ~0.5
/// after perturbation) above 0.99 while pruning the low-similarity bulk.
/// `bands == 0` or `rows == 0` yields no candidates in every build type (a
/// band of zero rows would put every record in one bucket per band, i.e.
/// the full cross product).
struct MinHashLshOptions {
  size_t bands = 16;
  size_t rows = 2;
  /// Buckets examined per band on the QUERY side (multi-probe): probe 0 is
  /// the canonical bucket (row-wise minimum hashes); probe p in [1, rows]
  /// substitutes the record's SECOND-smallest hash in band row p-1 —
  /// cheap deterministic neighbors that recover pairs whose minima
  /// narrowly disagree. Clamped to 1 + rows.
  size_t probes = 2;
  /// Seeds the per-hash-function parameters through Rng::Stream(seed, h) —
  /// signatures, buckets, and candidates are pure integer functions of
  /// (seed, token ids), identical on every machine and thread count.
  uint64_t seed = 0x15481D3AULL;
};

/// Deduplicated candidate (left record index, right record index) pairs
/// emitted by the LSH probe phase, BEFORE scoring — exposed so recall can
/// be measured against an exact blocker and so benches can time the
/// scoring kernels on a realistic candidate stream. Pairs come in left
/// record order, each left record's right indices ascending.
///
/// MinHashLshCandidates joins one band at a time: it hashes only that
/// band's rows functions over both tables, buckets the right table's
/// probe-0 keys in one band-sized hash table (reused band to band), probes
/// every left record's keys, and merges the band's packed
/// (left << 32 | right) pairs into the sorted unique set. Live memory is
/// one band's table and pairs per pool thread plus the unique candidates,
/// never every band's duplicates at once. The set equals per-band hash
/// maps' exactly. Record indices are uint32, so a table of more than
/// UINT32_MAX records aborts the call in every build type rather than wrap.
struct LshCandidates {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;
};
LshCandidates MinHashLshCandidates(const RecordColumns& left_cols,
                                   const RecordColumns& right_cols,
                                   const MinHashLshOptions& options);

/// The third blocker: banded MinHash/LSH multi-probe candidate generation
/// over tokenized record columns, batch-scored with the SIMD id kernels and
/// filtered at `threshold`. Subquadratic and string-free after tokenization;
/// candidate emission is chunk-id-ordered like the other blockers, so the
/// result is bit-identical at any thread count. Records with zero tokens
/// never enter a bucket (an empty set matches nothing under Jaccard).
Workload MinHashLshBlock(const RecordTable& left, const RecordTable& right,
                         const RecordColumns& left_cols,
                         const RecordColumns& right_cols,
                         const MinHashLshOptions& options,
                         text::IdSetMetric metric, double threshold);

/// Convenience: tokenizes `attribute_index` of both tables into a shared
/// dictionary and blocks with Jaccard scoring.
Workload MinHashLshBlock(const RecordTable& left, const RecordTable& right,
                         size_t attribute_index,
                         const MinHashLshOptions& options, double threshold);

/// Statistics describing a blocking run (reduction ratio, pair completeness
/// against ground truth) — the standard blocking-quality metrics.
struct BlockingStats {
  size_t candidate_pairs = 0;
  size_t total_possible_pairs = 0;
  size_t true_matches_total = 0;
  size_t true_matches_retained = 0;

  double ReductionRatio() const;
  double PairCompleteness() const;
};

/// Computes blocking statistics for a workload produced from two tables.
BlockingStats ComputeBlockingStats(const RecordTable& left,
                                   const RecordTable& right,
                                   const Workload& blocked);

}  // namespace humo::data
