#include "data/workload.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include "data/mmap_columns.h"

namespace humo::data {
namespace {

/// Monotone similarity key: maps a double to a uint64_t whose unsigned
/// order equals the IEEE total order of the values (negatives flipped
/// entirely, non-negatives get the sign bit set). Similarities live in
/// [0, 1] so the negative branch is defensive only.
inline uint64_t OrderedSimilarityBits(double sim) {
  uint64_t bits;
  std::memcpy(&bits, &sim, sizeof(bits));
  const uint64_t sign = uint64_t{1} << 63;
  return (bits & sign) ? ~bits : (bits | sign);
}

/// Below this size an index std::sort beats radix-pass setup costs.
constexpr size_t kRadixMinSize = 2048;

/// The radix key is the TOP 32 bits of the ordered similarity bits packed
/// with the row index: (key32 << 32) | row. Three 11-bit counting passes
/// order the packed words by key32 (2048 buckets keep the scatter's write
/// working set TLB-friendly, which measures faster than two 65536-bucket
/// passes); rows whose similarities collide in the top 32 bits (adjacent
/// values within ~2^-20 relative distance, plus exact ties) are finished
/// by a comparison sort over the full (similarity, left_id, right_id) key
/// — runs of length 1 almost everywhere, so the total stays O(n).
constexpr size_t kRadixBits = 11;
constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;
constexpr size_t kRadixPasses = 3;

}  // namespace

bool PairLess(const InstancePair& a, const InstancePair& b) {
  if (a.similarity != b.similarity) return a.similarity < b.similarity;
  if (a.left_id != b.left_id) return a.left_id < b.left_id;
  return a.right_id < b.right_id;
}

Workload::Workload(std::vector<InstancePair> pairs) {
  const size_t n = pairs.size();
  similarities_.resize(n);
  left_ids_.resize(n);
  right_ids_.resize(n);
  labels_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const InstancePair& p = pairs[i];
    similarities_[i] = p.similarity;
    left_ids_[i] = p.left_id;
    right_ids_[i] = p.right_id;
    labels_[i] = p.is_match ? 1 : 0;
  }
  SortBySimilarity();
}

Workload::Workload(const Workload& other)
    : similarities_(other.similarities_),
      left_ids_(other.left_ids_),
      right_ids_(other.right_ids_),
      labels_(other.labels_),
      mmap_(other.mmap_) {
  SyncViews();
}

Workload::Workload(Workload&& other) noexcept
    : similarities_(std::move(other.similarities_)),
      left_ids_(std::move(other.left_ids_)),
      right_ids_(std::move(other.right_ids_)),
      labels_(std::move(other.labels_)),
      mmap_(std::move(other.mmap_)) {
  SyncViews();
  other.SyncViews();
}

Workload& Workload::operator=(Workload&& other) noexcept {
  if (this != &other) {
    similarities_ = std::move(other.similarities_);
    left_ids_ = std::move(other.left_ids_);
    right_ids_ = std::move(other.right_ids_);
    labels_ = std::move(other.labels_);
    mmap_ = std::move(other.mmap_);
    SyncViews();
    other.SyncViews();
  }
  return *this;
}

void Workload::SyncViews() {
  if (mmap_) {
    num_pairs_ = mmap_->num_pairs();
    sim_data_ = mmap_->similarities();
    left_data_ = mmap_->left_ids();
    right_data_ = mmap_->right_ids();
    label_data_ = mmap_->labels();
  } else {
    num_pairs_ = similarities_.size();
    sim_data_ = similarities_.data();
    left_data_ = left_ids_.data();
    right_data_ = right_ids_.data();
    label_data_ = labels_.data();
  }
}

Workload Workload::FromMmap(std::shared_ptr<MmapColumns> columns) {
  assert(columns != nullptr);
  Workload w;
  w.mmap_ = std::move(columns);
  w.SyncViews();
  return w;
}

Workload Workload::FromColumns(std::vector<uint32_t> left_ids,
                               std::vector<uint32_t> right_ids,
                               std::vector<double> similarities,
                               std::vector<uint8_t> labels) {
  assert(left_ids.size() == similarities.size() &&
         right_ids.size() == similarities.size() &&
         labels.size() == similarities.size());
  Workload w;
  w.left_ids_ = std::move(left_ids);
  w.right_ids_ = std::move(right_ids);
  w.similarities_ = std::move(similarities);
  w.labels_ = std::move(labels);
  w.SortBySimilarity();
  return w;
}

bool Workload::RowLess(size_t a, size_t b) const {
  if (similarities_[a] != similarities_[b])
    return similarities_[a] < similarities_[b];
  if (left_ids_[a] != left_ids_[b]) return left_ids_[a] < left_ids_[b];
  return right_ids_[a] < right_ids_[b];
}

void Workload::ApplyPermutation(const std::vector<size_t>& perm) {
  assert(!mmap_backed());
  const size_t n = perm.size();
  assert(n == similarities_.size());
  std::vector<double> sims(n);
  std::vector<uint32_t> lefts(n), rights(n);
  std::vector<uint8_t> labels(n);
  // One gather loop PER column: each loop's random reads touch one source
  // array only, so the working set stays cache-resident — measurably
  // faster at 1M+ pairs than a fused loop striding four arrays at once.
  for (size_t i = 0; i < n; ++i) sims[i] = similarities_[perm[i]];
  for (size_t i = 0; i < n; ++i) lefts[i] = left_ids_[perm[i]];
  for (size_t i = 0; i < n; ++i) rights[i] = right_ids_[perm[i]];
  for (size_t i = 0; i < n; ++i) labels[i] = labels_[perm[i]];
  similarities_ = std::move(sims);
  left_ids_ = std::move(lefts);
  right_ids_ = std::move(rights);
  labels_ = std::move(labels);
  SyncViews();
}

void Workload::SortBySimilarity() {
  assert(!mmap_backed());
  const size_t n = similarities_.size();
  SyncViews();
  if (n < 2) return;

  bool sorted = true;
  for (size_t i = 1; i < n; ++i) {
    if (RowLess(i, i - 1)) {
      sorted = false;
      break;
    }
  }
  if (sorted) return;

  // The radix path packs row indices into 32 bits; workloads at or beyond
  // 2^32 pairs (~70 GB of columns) take the comparison path rather than
  // silently corrupting the permutation.
  if (n < kRadixMinSize ||
      n > static_cast<size_t>(std::numeric_limits<uint32_t>::max())) {
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), size_t{0});
    std::sort(perm.begin(), perm.end(),
              [this](size_t a, size_t b) { return RowLess(a, b); });
    ApplyPermutation(perm);
    return;
  }
  thread_local std::vector<uint32_t> perm;
  perm.resize(n);

  // One packed word per row: top-32 similarity key bits | row index. The
  // scatter passes move 8 bytes per element instead of a (key, index)
  // pair, and the low 32 bits ARE the permutation when they finish.
  // new[] leaves the buffers uninitialized — every word is written before
  // it is read, and skipping the ~16n-byte zero fill is measurable. Up to
  // kScratchMaxPairs the buffers are thread_local and reused across sorts:
  // repeated construction (streaming epochs, benches, blocking) would
  // otherwise pay the kernel's page-fault cost on ~16n bytes of fresh
  // mmap'd scratch every time, which at 1M pairs is ~25% of the sort. The
  // cap bounds what an idle thread can pin after one large sort (~75 MiB
  // worst case across the packed buffers, output columns, and perm —
  // larger sorts release everything on return).
  constexpr size_t kScratchMaxPairs = size_t{2} << 20;
  thread_local std::unique_ptr<uint64_t[]> scratch_a, scratch_b;
  thread_local size_t scratch_cap = 0;
  std::unique_ptr<uint64_t[]> local_a, local_b;
  uint64_t* src;
  uint64_t* dst;
  if (n <= kScratchMaxPairs) {
    if (scratch_cap < n) {
      scratch_a.reset(new uint64_t[n]);
      scratch_b.reset(new uint64_t[n]);
      scratch_cap = n;
    }
    src = scratch_a.get();
    dst = scratch_b.get();
  } else {
    local_a.reset(new uint64_t[n]);
    local_b.reset(new uint64_t[n]);
    src = local_a.get();
    dst = local_b.get();
  }
  uint32_t counts[kRadixPasses][kRadixBuckets] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key32 = OrderedSimilarityBits(similarities_[i]) >> 32;
    src[i] = (key32 << 32) | static_cast<uint64_t>(i);
    for (size_t p = 0; p < kRadixPasses; ++p) {
      ++counts[p][(key32 >> (p * kRadixBits)) & (kRadixBuckets - 1)];
    }
  }
  for (size_t p = 0; p < kRadixPasses; ++p) {
    uint32_t offsets[kRadixBuckets];
    uint32_t running = 0;
    for (size_t b = 0; b < kRadixBuckets; ++b) {
      offsets[b] = running;
      running += counts[p][b];
    }
    const size_t shift = 32 + p * kRadixBits;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t w = src[i];
      dst[offsets[(w >> shift) & (kRadixBuckets - 1)]++] = w;
    }
    std::swap(src, dst);
  }

  for (size_t i = 0; i < n; ++i)
    perm[i] = static_cast<uint32_t>(src[i] & 0xFFFFFFFFu);

  // The counting passes ordered rows by the top 32 key bits only (stably);
  // finish every run of colliding key32 values — near-equal similarities
  // and exact ties — with the full PairLess comparison. Runs are length 1
  // almost everywhere.
  size_t run_begin = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || (src[i] >> 32) != (src[run_begin] >> 32)) {
      const size_t len = i - run_begin;
      if (len > 1 && len <= 8) {
        // Insertion sort: collision runs are almost always 2-3 rows, where
        // std::sort's dispatch overhead dominates the comparisons.
        for (size_t a = run_begin + 1; a < i; ++a) {
          const uint32_t row = perm[a];
          size_t b = a;
          while (b > run_begin && RowLess(row, perm[b - 1])) {
            perm[b] = perm[b - 1];
            --b;
          }
          perm[b] = row;
        }
      } else if (len > 8) {
        std::sort(perm.begin() + static_cast<ptrdiff_t>(run_begin),
                  perm.begin() + static_cast<ptrdiff_t>(i),
                  [this](uint32_t a, uint32_t b) { return RowLess(a, b); });
      }
      run_begin = i;
    }
  }

  // Gather every column through the permutation into reusable scratch
  // columns, then swap them in — the old columns become the next sort's
  // scratch, so steady-state sorting allocates nothing. One loop per
  // column keeps each loop's random reads inside one source array (see
  // ApplyPermutation).
  thread_local std::vector<double> out_sims;
  thread_local std::vector<uint32_t> out_lefts, out_rights;
  thread_local std::vector<uint8_t> out_labels;
  out_sims.resize(n);
  out_lefts.resize(n);
  out_rights.resize(n);
  out_labels.resize(n);
  for (size_t i = 0; i < n; ++i) out_sims[i] = similarities_[perm[i]];
  for (size_t i = 0; i < n; ++i) out_lefts[i] = left_ids_[perm[i]];
  for (size_t i = 0; i < n; ++i) out_rights[i] = right_ids_[perm[i]];
  for (size_t i = 0; i < n; ++i) out_labels[i] = labels_[perm[i]];
  similarities_.swap(out_sims);
  left_ids_.swap(out_lefts);
  right_ids_.swap(out_rights);
  labels_.swap(out_labels);
  SyncViews();
  if (n > kScratchMaxPairs) {
    // Do not retain huge scratch columns past the call.
    out_sims = {};
    out_lefts = {};
    out_rights = {};
    out_labels = {};
    perm = {};
  }
}

std::vector<size_t> Workload::MergeSorted(std::vector<InstancePair> incoming) {
  assert(!mmap_backed());
  if (incoming.empty()) return {};
  // Sorting the incoming block reuses the whole radix/tiebreak machinery.
  Workload inc(std::move(incoming));
  const size_t n = size(), m = inc.size();
  std::vector<size_t> landed;
  landed.reserve(m);

  if (n == 0 || !PairLess(inc[0], (*this)[n - 1])) {
    for (size_t j = 0; j < m; ++j) landed.push_back(n + j);
    similarities_.insert(similarities_.end(), inc.similarities_.begin(),
                         inc.similarities_.end());
    left_ids_.insert(left_ids_.end(), inc.left_ids_.begin(),
                     inc.left_ids_.end());
    right_ids_.insert(right_ids_.end(), inc.right_ids_.begin(),
                      inc.right_ids_.end());
    labels_.insert(labels_.end(), inc.labels_.begin(), inc.labels_.end());
    SyncViews();
    return landed;
  }

  // Column-wise two-pointer merge under PairLess: identical to what a
  // from-scratch sort of the concatenation would produce, because PairLess
  // is a total order on distinct pairs. Ties (incoming not less than
  // existing) keep the existing pair first, matching std::inplace_merge.
  std::vector<double> sims;
  std::vector<uint32_t> lefts, rights;
  std::vector<uint8_t> labels;
  sims.reserve(n + m);
  lefts.reserve(n + m);
  rights.reserve(n + m);
  labels.reserve(n + m);
  size_t i = 0, j = 0;
  while (i < n || j < m) {
    const bool take_incoming =
        i == n || (j < m && PairLess(inc[j], (*this)[i]));
    if (take_incoming) {
      landed.push_back(sims.size());
      sims.push_back(inc.similarities_[j]);
      lefts.push_back(inc.left_ids_[j]);
      rights.push_back(inc.right_ids_[j]);
      labels.push_back(inc.labels_[j]);
      ++j;
    } else {
      sims.push_back(similarities_[i]);
      lefts.push_back(left_ids_[i]);
      rights.push_back(right_ids_[i]);
      labels.push_back(labels_[i]);
      ++i;
    }
  }
  similarities_ = std::move(sims);
  left_ids_ = std::move(lefts);
  right_ids_ = std::move(rights);
  labels_ = std::move(labels);
  SyncViews();
  return landed;
}

std::vector<InstancePair> Workload::MaterializePairs() const {
  std::vector<InstancePair> pairs;
  pairs.reserve(size());
  for (size_t i = 0; i < size(); ++i) pairs.push_back((*this)[i]);
  return pairs;
}

size_t Workload::IndexOfSorted(const InstancePair& pair) const {
  const size_t n = size();
  // Lower bound over the similarity column; the id tiebreak within an
  // equal-similarity run is scanned linearly (runs are ~1 long).
  size_t lo = static_cast<size_t>(
      std::lower_bound(sim_data_, sim_data_ + n, pair.similarity) -
      sim_data_);
  for (; lo < n && sim_data_[lo] == pair.similarity; ++lo) {
    if (left_data_[lo] == pair.left_id && right_data_[lo] == pair.right_id) {
      return lo;
    }
  }
  return n;
}

size_t Workload::CountMatches() const {
  size_t n = 0;
  for (size_t i = 0; i < num_pairs_; ++i) n += label_data_[i];
  return n;
}

std::vector<int> Workload::GroundTruthLabels() const {
  return std::vector<int>(label_data_, label_data_ + num_pairs_);
}

void Workload::Add(InstancePair pair) {
  assert(!mmap_backed());
  similarities_.push_back(pair.similarity);
  left_ids_.push_back(pair.left_id);
  right_ids_.push_back(pair.right_id);
  labels_.push_back(pair.is_match ? 1 : 0);
  SyncViews();
}

WorkloadSummary Summarize(const Workload& w) {
  WorkloadSummary s;
  s.num_pairs = w.size();
  s.num_matches = w.CountMatches();
  if (!w.empty()) {
    s.min_similarity = w.Similarity(0);
    s.max_similarity = w.Similarity(w.size() - 1);
    s.match_fraction =
        static_cast<double>(s.num_matches) / static_cast<double>(s.num_pairs);
  }
  return s;
}

}  // namespace humo::data
