#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.h"

namespace humo::text {

/// Set-similarity metrics over dictionary-encoded token ids. The id-range
/// kernels below are the "tokenize once, score many" fast path of the
/// raw-record pipeline: each record's tokens are interned into sorted
/// unique uint32 ids ONCE (data/record_columns.h), and every candidate pair
/// is then scored over two contiguous integer ranges — no string hashing,
/// no per-call allocation.
enum class IdSetMetric {
  /// |A∩B| / |A∪B|; two empty sets score 1, one empty scores 0 — matching
  /// text::JaccardSimilarity over string tokens exactly (bitwise: both are
  /// the same integer division).
  kJaccard,
  /// 2|A∩B| / (|A|+|B|).
  kDice,
  /// |A∩B| / min(|A|,|B|).
  kOverlap,
  /// Dot product of the per-id TF-IDF weight columns (weights are
  /// L2-normalized per record, so the dot IS the cosine). Two empty
  /// documents score 0, matching TfIdfModel::Cosine on empty vectors.
  kCosineTfIdf,
};

/// |A∩B| of two sorted unique id ranges. Runtime-dispatched to an AVX2
/// kernel where the CPU supports it (same __builtin_cpu_supports pattern as
/// linalg's SolveLowerRows); the count is a pure integer, so scalar and
/// SIMD paths are bit-identical by construction.
size_t SortedIdIntersection(const uint32_t* a, size_t na, const uint32_t* b,
                            size_t nb);

/// Similarity of two sorted unique id ranges under `metric` (kCosineTfIdf
/// not supported here — it needs weights; use IdWeightedDot).
double IdSetSimilarity(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb, IdSetMetric metric);

/// Dot product over the id intersection: sum of a_w[i] * b_w[j] for every
/// a_ids[i] == b_ids[j], accumulated in ascending id order. The AVX2 path
/// vectorizes the membership SEARCH only; products are accumulated
/// scalar, in the same order as the scalar merge — never fused — so the
/// result is bit-identical on every machine.
double IdWeightedDot(const uint32_t* a_ids, const double* a_w, size_t na,
                     const uint32_t* b_ids, const double* b_w, size_t nb);

/// One side's structure-of-arrays token view: record r owns ids/weights
/// [offsets[r], offsets[r+1]). `weights` may be null unless the metric is
/// kCosineTfIdf. This mirrors data::RecordColumns' layout without making
/// text/ depend on data/.
struct IdSetColumns {
  const uint32_t* offsets = nullptr;
  const uint32_t* ids = nullptr;
  const double* weights = nullptr;
};

/// Batched kernel: out[k] = similarity(a record pair_a[k], b record
/// pair_b[k]) for k in [0, num_pairs). Parallel over the global thread pool
/// in contiguous index-addressed blocks — bit-identical at any thread
/// count.
void BatchIdSetSimilarity(const IdSetColumns& a, const IdSetColumns& b,
                          const uint32_t* pair_a, const uint32_t* pair_b,
                          size_t num_pairs, IdSetMetric metric, double* out);

namespace internal {

/// True when the runtime dispatch selects the AVX2 kernels on this machine:
/// the library-wide probe, also reachable under this name.
using humo::CpuHasAvx2;

/// The two intersection implementations, individually callable so tests can
/// assert their equality on machines that have AVX2 (the public entry point
/// would otherwise hide one of them).
size_t SortedIdIntersectionScalar(const uint32_t* a, size_t na,
                                  const uint32_t* b, size_t nb);
double IdWeightedDotScalar(const uint32_t* a_ids, const double* a_w,
                           size_t na, const uint32_t* b_ids, const double* b_w,
                           size_t nb);
#ifdef HUMO_HAS_AVX2_DISPATCH
size_t SortedIdIntersectionAvx2(const uint32_t* a, size_t na,
                                const uint32_t* b, size_t nb);
double IdWeightedDotAvx2(const uint32_t* a_ids, const double* a_w, size_t na,
                         const uint32_t* b_ids, const double* b_w, size_t nb);
#endif

}  // namespace internal

}  // namespace humo::text
