#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace humo::core {

/// Sparse-friendly answer memory of core::Oracle: a paged pair of bitsets
/// ("is this index known?" / "what was the answer?") indexed by pair index.
///
/// The pre-overhaul oracle kept a std::unordered_map<size_t, bool>, which
/// costs ~50-60 bytes per inspected pair once node, bucket, and allocator
/// overhead are counted — at 10M inspected pairs that is over half a
/// gigabyte of answer memory. A page here covers 4096 consecutive indices
/// with two 512-byte bitsets (1 KiB + one pointer), so a fully inspected
/// 10M-pair workload costs ~2.5 MiB and lookups are two bit probes with no
/// hashing. Pages are allocated lazily: an oracle that only ever touches DH
/// pays only for DH's pages.
///
/// Not thread-safe; the oracle serializes human interaction by design.
class PagedAnswerBitmap {
 public:
  /// Indices per page. 4096 keeps a page at 1 KiB — small enough that a
  /// sparse inspection pattern wastes little, large enough that the page
  /// table is ~2.4k pointers per 10M pairs.
  static constexpr size_t kPageSize = 4096;

  PagedAnswerBitmap() = default;

  /// True when index i has a recorded answer.
  bool Known(size_t i) const {
    const size_t p = i / kPageSize;
    if (p >= pages_.size() || pages_[p] == nullptr) return false;
    const size_t b = i % kPageSize;
    return (pages_[p]->known[b / 64] >> (b % 64)) & 1u;
  }

  /// The recorded answer for index i. Precondition: Known(i).
  bool Answer(size_t i) const {
    assert(Known(i) && "Answer() on an unknown index");
    const size_t p = i / kPageSize;
    const size_t b = i % kPageSize;
    return (pages_[p]->answer[b / 64] >> (b % 64)) & 1u;
  }

  /// Records `answer` for index i. Returns true when the index was newly
  /// recorded, false when an answer already existed (in which case the
  /// stored answer is left untouched — history cannot be rewritten).
  bool Record(size_t i, bool answer) {
    const size_t p = i / kPageSize;
    if (p >= pages_.size()) pages_.resize(p + 1);
    if (pages_[p] == nullptr) pages_[p] = std::make_unique<Page>();
    Page& page = *pages_[p];
    const size_t b = i % kPageSize;
    const uint64_t mask = uint64_t{1} << (b % 64);
    if (page.known[b / 64] & mask) return false;
    page.known[b / 64] |= mask;
    if (answer) page.answer[b / 64] |= mask;
    return true;
  }

  /// Turns the recorded answer of index i to match. Only for an index the
  /// caller itself just recorded as non-match: the oracle claims a batch's
  /// fresh indices with Record(i, false) before they are answered.
  /// Precondition: Known(i).
  void SetMatch(size_t i) {
    assert(Known(i) && "SetMatch() on an unknown index");
    const size_t b = i % kPageSize;
    pages_[i / kPageSize]->answer[b / 64] |= uint64_t{1} << (b % 64);
  }

  /// Moves every recorded answer to the index it has after rows were
  /// inserted at `landed`: the ascending positions of the new rows in the
  /// grown index space (Workload::MergeSorted's return value). An answer at
  /// old index i moves up by the number of rows that landed before it. One
  /// ascending pass over the pages; answers are moved, never created.
  void MoveForInsertions(const std::vector<size_t>& landed) {
    PagedAnswerBitmap moved;
    size_t shift = 0;
    for (size_t p = 0; p < pages_.size(); ++p) {
      if (pages_[p] == nullptr) continue;
      const Page& page = *pages_[p];
      for (size_t w = 0; w < kWordsPerPage; ++w) {
        uint64_t bits = page.known[w];
        while (bits != 0) {
          const int bit = __builtin_ctzll(bits);
          bits &= bits - 1;
          const size_t index =
              p * kPageSize + w * 64 + static_cast<size_t>(bit);
          while (shift < landed.size() && landed[shift] <= index + shift) {
            ++shift;
          }
          moved.Record(index + shift, (page.answer[w] >> bit) & 1u);
        }
      }
    }
    pages_ = std::move(moved.pages_);
  }

  /// Bytes held by pages plus the page table — the number the scaling docs
  /// quote against the unordered_map it replaced.
  size_t MemoryBytes() const {
    size_t bytes = pages_.capacity() * sizeof(pages_[0]);
    for (const auto& p : pages_) {
      if (p != nullptr) bytes += sizeof(Page);
    }
    return bytes;
  }

 private:
  static constexpr size_t kWordsPerPage = kPageSize / 64;

  struct Page {
    std::array<uint64_t, kWordsPerPage> known{};
    std::array<uint64_t, kWordsPerPage> answer{};
  };

  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace humo::core
