#include "core/partition.h"

#include <algorithm>
#include <cassert>

#include "common/thread_pool.h"

namespace humo::core {
namespace {

/// Subsets per parallel rebuild task. At the paper's subset size of 200
/// pairs one task sums ~12.8k contiguous doubles — large enough to amortize
/// scheduling, small enough to balance across the pool.
constexpr size_t kRebuildGrain = 64;

/// Sequential sum of similarities[begin, end): the ONE accumulation order
/// every rebuild path (serial, parallel, tail) must share so that
/// avg_similarity is bitwise identical however the partition was built.
double SumRange(const double* similarities, size_t begin, size_t end) {
  double acc = 0.0;
  for (size_t i = begin; i < end; ++i) acc += similarities[i];
  return acc;
}

/// Eight EQUAL-LENGTH subset sums advanced in lockstep. Each accumulator
/// still adds ITS subset's elements in ascending index order — the same
/// rounding sequence SumRange produces — but the eight independent add
/// chains overlap in the FP pipeline instead of serializing on one chain's
/// 4-5 cycle add latency, which is what bounds the single-chain loop.
/// Bitwise identical per subset; ~3-5x single-thread throughput at the
/// paper's subset size (same interleaved-chain idea as the linalg
/// SubDotInterleavedStep kernels).
constexpr size_t kInterleave = 8;

void SumInterleavedSubsets(const double* similarities, size_t first_begin,
                           size_t len, double out[kInterleave]) {
  double acc[kInterleave] = {};
  const double* base = similarities + first_begin;
  // Blocked: one prefetch per stream per cache line (the hardware
  // prefetcher tracks the eight forward streams imperfectly at this
  // stride), then eight branch-free add iterations.
  size_t j = 0;
  for (; j + 8 <= len; j += 8) {
    for (size_t t = 0; t < kInterleave; ++t) {
      __builtin_prefetch(base + t * len + j + 64);
    }
    for (size_t jj = j; jj < j + 8; ++jj) {
      for (size_t t = 0; t < kInterleave; ++t) {
        acc[t] += base[t * len + jj];
      }
    }
  }
  for (; j < len; ++j) {
    for (size_t t = 0; t < kInterleave; ++t) {
      acc[t] += base[t * len + j];
    }
  }
  for (size_t t = 0; t < kInterleave; ++t) out[t] = acc[t];
}

}  // namespace

SubsetPartition::SubsetPartition(const data::Workload* workload,
                                 size_t subset_size)
    : workload_(workload), subset_size_(subset_size) {
  assert(workload_ != nullptr);
  assert(subset_size_ > 0);
  Rebuild();
}

void SubsetPartition::Rebuild() { RebuildTail(0); }

void SubsetPartition::RebuildTail(size_t from_subset) {
  assert(workload_ != nullptr);
  const size_t n = workload_->size();
  const size_t m = n / subset_size_;  // final subset absorbs remainder
  const double* sims = workload_->similarity_data();
  if (n == 0) {
    subsets_.clear();
    return;
  }
  if (m == 0) {
    // Fewer pairs than one subset: single subset with everything.
    Subset s{0, n, 0.0};
    s.avg_similarity = SumRange(sims, 0, n) / static_cast<double>(n);
    subsets_.assign(1, s);
    return;
  }
  from_subset = std::min(from_subset, m);
  assert(from_subset <= subsets_.size());
  subsets_.resize(m);
  // Every subset's [begin, end) and average depend only on (k, n,
  // subset_size): disjoint index-addressed writes, deterministic at any
  // thread count. One pass over the contiguous similarity column, O(pairs
  // in [from_subset * subset_size, n)).
  ThreadPool::Global()->ParallelFor(
      m - from_subset, kRebuildGrain,
      [&](size_t chunk_begin, size_t chunk_end) {
        size_t k = from_subset + chunk_begin;
        const size_t k_end = from_subset + chunk_end;
        // Full-width subsets in interleaved groups; the remainder-absorbing
        // final subset (and any leftover group) falls through to the
        // single-chain loop below.
        while (k + kInterleave <= k_end && k + kInterleave < m) {
          double sums[kInterleave];
          SumInterleavedSubsets(sims, k * subset_size_, subset_size_, sums);
          for (size_t t = 0; t < kInterleave; ++t) {
            Subset s;
            s.begin = (k + t) * subset_size_;
            s.end = s.begin + subset_size_;
            s.avg_similarity = sums[t] / static_cast<double>(subset_size_);
            subsets_[k + t] = s;
          }
          k += kInterleave;
        }
        for (; k < k_end; ++k) {
          Subset s;
          s.begin = k * subset_size_;
          s.end = (k + 1 == m) ? n : (k + 1) * subset_size_;
          s.avg_similarity =
              SumRange(sims, s.begin, s.end) / static_cast<double>(s.size());
          subsets_[k] = s;
        }
      });
}

size_t SubsetPartition::PairsInRange(size_t from, size_t to) const {
  if (from > to || subsets_.empty()) return 0;
  assert(to < subsets_.size());
  return subsets_[to].end - subsets_[from].begin;
}

}  // namespace humo::core
