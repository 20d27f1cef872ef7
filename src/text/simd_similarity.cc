#include "text/simd_similarity.h"

#include <algorithm>
#include <cassert>

#include "common/cpu.h"
#include "common/thread_pool.h"

#ifdef HUMO_HAS_AVX2_DISPATCH
#include <immintrin.h>
#endif

namespace humo::text {
namespace internal {

size_t SortedIdIntersectionScalar(const uint32_t* a, size_t na,
                                  const uint32_t* b, size_t nb) {
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

double IdWeightedDotScalar(const uint32_t* a_ids, const double* a_w, size_t na,
                           const uint32_t* b_ids, const double* b_w,
                           size_t nb) {
  size_t i = 0, j = 0;
  double dot = 0.0;
  while (i < na && j < nb) {
    if (a_ids[i] < b_ids[j]) {
      ++i;
    } else if (b_ids[j] < a_ids[i]) {
      ++j;
    } else {
      dot += a_w[i] * b_w[j];
      ++i;
      ++j;
    }
  }
  return dot;
}

#ifdef HUMO_HAS_AVX2_DISPATCH

/// Broadcast-compare intersection count: for each a[i], an 8-lane window of
/// b is advanced until its last element reaches a[i]; one vector compare
/// then answers membership (ids are unique per record, so a match can only
/// sit inside that window). The count is order-independent integer
/// arithmetic — bit-identical to the scalar merge by construction.
__attribute__((target("avx2"))) size_t SortedIdIntersectionAvx2(
    const uint32_t* a, size_t na, const uint32_t* b, size_t nb) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  const size_t nb8 = nb & ~size_t{7};
  size_t count = 0;
  size_t j = 0;
  for (size_t i = 0; i < na; ++i) {
    const uint32_t key = a[i];
    while (j < nb8 && b[j + 7] < key) j += 8;
    if (j >= nb8) {
      // b's vectorizable prefix is exhausted; finish both tails scalar.
      return count + SortedIdIntersectionScalar(a + i, na - i, b + j, nb - j);
    }
    const __m256i keyv = _mm256_set1_epi32(static_cast<int>(key));
    const __m256i block =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i eq = _mm256_cmpeq_epi32(block, keyv);
    count += _mm256_movemask_ps(_mm256_castsi256_ps(eq)) != 0 ? 1 : 0;
  }
  return count;
}

/// Same windowed membership search, but a hit contributes a_w[i] * b_w[pos]
/// — accumulated SCALAR in ascending a order, the exact order of the scalar
/// merge, so the floating-point result is bit-identical (no FMA; the
/// library builds with -ffp-contract=off).
__attribute__((target("avx2"))) double IdWeightedDotAvx2(
    const uint32_t* a_ids, const double* a_w, size_t na, const uint32_t* b_ids,
    const double* b_w, size_t nb) {
  const size_t nb8 = nb & ~size_t{7};
  double dot = 0.0;
  size_t j = 0;
  for (size_t i = 0; i < na; ++i) {
    const uint32_t key = a_ids[i];
    while (j < nb8 && b_ids[j + 7] < key) j += 8;
    if (j >= nb8) {
      // b's vectorizable prefix is exhausted: finish with the scalar merge,
      // accumulating INTO THE SAME running sum — a separate tail accumulator
      // would re-associate the additions and break bit-identity.
      while (i < na && j < nb) {
        if (a_ids[i] < b_ids[j]) {
          ++i;
        } else if (b_ids[j] < a_ids[i]) {
          ++j;
        } else {
          dot += a_w[i] * b_w[j];
          ++i;
          ++j;
        }
      }
      return dot;
    }
    const __m256i keyv = _mm256_set1_epi32(static_cast<int>(key));
    const __m256i block =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_ids + j));
    const __m256i eq = _mm256_cmpeq_epi32(block, keyv);
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq));
    if (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      dot += a_w[i] * b_w[j + static_cast<size_t>(lane)];
    }
  }
  return dot;
}

#endif  // HUMO_HAS_AVX2_DISPATCH

}  // namespace internal

size_t SortedIdIntersection(const uint32_t* a, size_t na, const uint32_t* b,
                            size_t nb) {
#ifdef HUMO_HAS_AVX2_DISPATCH
  if (CpuHasAvx2()) {
    return internal::SortedIdIntersectionAvx2(a, na, b, nb);
  }
#endif
  return internal::SortedIdIntersectionScalar(a, na, b, nb);
}

double IdWeightedDot(const uint32_t* a_ids, const double* a_w, size_t na,
                     const uint32_t* b_ids, const double* b_w, size_t nb) {
#ifdef HUMO_HAS_AVX2_DISPATCH
  if (CpuHasAvx2()) {
    // The weighted search walks a in full; putting the smaller side in a
    // keeps the window scan short, and the accumulation order (ascending
    // id) is symmetric, so swapping sides is exact.
    if (na > nb) {
      return internal::IdWeightedDotAvx2(b_ids, b_w, nb, a_ids, a_w, na);
    }
    return internal::IdWeightedDotAvx2(a_ids, a_w, na, b_ids, b_w, nb);
  }
#endif
  return internal::IdWeightedDotScalar(a_ids, a_w, na, b_ids, b_w, nb);
}

double IdSetSimilarity(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb, IdSetMetric metric) {
  assert(metric != IdSetMetric::kCosineTfIdf);
  if (na == 0 && nb == 0) return 1.0;
  if (na == 0 || nb == 0) return 0.0;
  const size_t inter = SortedIdIntersection(a, na, b, nb);
  switch (metric) {
    case IdSetMetric::kJaccard: {
      const size_t uni = na + nb - inter;
      return static_cast<double>(inter) / static_cast<double>(uni);
    }
    case IdSetMetric::kCosineTfIdf:
      break;
  }
  return 0.0;
}

namespace {

/// Candidate pairs per scoring task: the kernels are cache-resident integer
/// loops, so large grains amortize the pool's dispatch.
constexpr size_t kBatchGrain = 4096;

}  // namespace

void BatchIdSetSimilarity(const IdSetColumns& a, const IdSetColumns& b,
                          const uint32_t* pair_a, const uint32_t* pair_b,
                          size_t num_pairs, IdSetMetric metric, double* out) {
  assert(metric != IdSetMetric::kCosineTfIdf ||
         (a.weights != nullptr && b.weights != nullptr));
  ThreadPool::Global()->ParallelFor(
      num_pairs, kBatchGrain, [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
          const uint32_t ra = pair_a[k], rb = pair_b[k];
          const uint32_t a0 = a.offsets[ra], a1 = a.offsets[ra + 1];
          const uint32_t b0 = b.offsets[rb], b1 = b.offsets[rb + 1];
          if (metric == IdSetMetric::kCosineTfIdf) {
            out[k] = IdWeightedDot(a.ids + a0, a.weights + a0, a1 - a0,
                                   b.ids + b0, b.weights + b0, b1 - b0);
          } else {
            out[k] = IdSetSimilarity(a.ids + a0, a1 - a0, b.ids + b0, b1 - b0,
                                     metric);
          }
        }
      });
}

}  // namespace humo::text
