#include "data/record_columns.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace humo::data {
namespace {

/// Records per tokenization task (string work dominates; small-ish grain
/// balances skewed attribute lengths).
constexpr size_t kTokenizeGrain = 256;

/// Tokens handed to one TokenDictionary::InternBatch call.
constexpr size_t kInternSlice = 1024;

/// The tokens of one tokenization task's records, back to back: `bytes`
/// holds every normalized token with no separator, and record i's sorted
/// distinct tokens are spans [ends[i - 1], ends[i]) (from 0 for i = 0),
/// each with its term frequency. Nothing is allocated per record.
struct TokenArena {
  struct Span {
    uint32_t offset;  // into bytes
    uint32_t length;
    uint32_t tf;
  };
  std::string bytes;
  std::vector<Span> spans;
  std::vector<uint32_t> ends;  // per record

  std::string_view View(const Span& s) const {
    return {bytes.data() + s.offset, s.length};
  }

  /// Appends one record: `value` normalized by kMatchFold (the byte rule of
  /// NormalizeForMatching, so the tokens are exactly
  /// text::WordTokens(NormalizeForMatching(value))), its tokens sorted and
  /// merged into distinct spans with their counts.
  void Add(std::string_view value) {
    const size_t first = spans.size();
    size_t out = bytes.size();
    if (value.size() > UINT32_MAX - out) {
      std::fprintf(stderr,
                   "RecordColumns::Build: %zu normalized bytes of one task "
                   "exceed the uint32 offset range\n",
                   out + value.size());
      std::abort();
    }
    bytes.resize(out + value.size());
    char* const data = bytes.data();
    size_t start = out;
    for (const char raw : value) {
      const char c = kMatchFold[static_cast<unsigned char>(raw)];
      if (c != 0) {
        data[out++] = c;
      } else if (out > start) {
        spans.push_back({static_cast<uint32_t>(start),
                         static_cast<uint32_t>(out - start), 1});
        start = out;
      }
    }
    if (out > start) {
      spans.push_back({static_cast<uint32_t>(start),
                       static_cast<uint32_t>(out - start), 1});
    }
    bytes.resize(out);
    Span* const s = spans.data() + first;
    const size_t count = spans.size() - first;
    std::sort(s, s + count, [this](const Span& x, const Span& y) {
      return View(x) < View(y);
    });
    size_t distinct = 0;
    for (size_t i = 0; i < count; ++i) {
      if (distinct > 0 && View(s[distinct - 1]) == View(s[i])) {
        ++s[distinct - 1].tf;
      } else {
        s[distinct++] = s[i];
      }
    }
    spans.resize(first + distinct);
    ends.push_back(static_cast<uint32_t>(spans.size()));
  }
};

}  // namespace

RecordColumns RecordColumns::Build(const RecordTable& table,
                                   size_t attribute_index,
                                   text::TokenDictionary* dict) {
  const size_t n = table.size();
  RecordColumns cols;
  cols.offsets_.assign(n + 1, 0);
  if (n == 0) return cols;

  // Phase 1 (parallel): each task tokenizes its records into the arena of
  // its task index. A ParallelFor that runs inline is one task (arena 0
  // holds every record), so the arenas, concatenated in task order, list
  // the records in table order at any thread count.
  std::vector<TokenArena> arenas((n + kTokenizeGrain - 1) / kTokenizeGrain);
  ThreadPool::Global()->ParallelFor(
      n, kTokenizeGrain, [&](size_t begin, size_t end) {
        TokenArena& arena = arenas[begin / kTokenizeGrain];
        size_t bytes = 0;
        for (size_t r = begin; r < end; ++r) {
          bytes += table[r].attributes[attribute_index].size();
        }
        arena.bytes.reserve(bytes);
        arena.ends.reserve(end - begin);
        for (size_t r = begin; r < end; ++r) {
          arena.Add(table[r].attributes[attribute_index]);
        }
      });

  // Phase 2 (serial, record order): intern into the shared dictionary.
  // Interning order — and with it every id — depends only on the table's
  // record order, never on scheduling. The ids land in token_ids_ in span
  // order and each record's are then re-sorted: tokens were sorted
  // lexicographically, but ids are assigned first-seen, so id order is NOT
  // token order.
  size_t total = 0;
  for (const TokenArena& arena : arenas) total += arena.spans.size();
  if (total > UINT32_MAX) {
    std::fprintf(stderr,
                 "RecordColumns::Build: %zu token ids exceed the uint32 "
                 "offset range\n",
                 total);
    std::abort();
  }
  cols.token_ids_.resize(total);
  cols.term_freq_.resize(total);
  std::vector<std::string_view> views;
  std::vector<std::pair<uint32_t, uint32_t>> scratch;  // (id, tf)
  size_t r = 0;
  uint32_t base = 0;  // first span of the arena in the columns
  for (const TokenArena& arena : arenas) {
    const size_t m = arena.spans.size();
    uint32_t* const ids = cols.token_ids_.data() + base;
    for (size_t lo = 0; lo < m; lo += kInternSlice) {
      const size_t hi = std::min(m, lo + kInternSlice);
      views.clear();
      for (size_t k = lo; k < hi; ++k) {
        views.push_back(arena.View(arena.spans[k]));
      }
      dict->InternBatch(views.data(), views.size(), ids + lo);
    }
    uint32_t* const tfs = cols.term_freq_.data() + base;
    uint32_t begin = 0;
    for (const uint32_t end : arena.ends) {
      scratch.clear();
      for (uint32_t k = begin; k < end; ++k) {
        scratch.emplace_back(ids[k], arena.spans[k].tf);
      }
      std::sort(scratch.begin(), scratch.end());
      for (uint32_t k = begin; k < end; ++k) {
        std::tie(ids[k], tfs[k]) = scratch[k - begin];
      }
      dict->CountDocument(ids + begin, end - begin);
      cols.offsets_[++r] = base + end;
      begin = end;
    }
    base += static_cast<uint32_t>(m);
  }
  return cols;
}

void RecordColumns::AttachTfIdf(const text::TfIdfModel& model) {
  weights_.resize(token_ids_.size());
  const size_t n = num_records();
  ThreadPool::Global()->ParallelFor(n, kTokenizeGrain, [&](size_t begin,
                                                           size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const uint32_t o = offsets_[r];
      model.TransformIds(token_ids_.data() + o, term_freq_.data() + o,
                         offsets_[r + 1] - o, weights_.data() + o);
    }
  });
}

void BatchScorePairs(const RecordColumns& left, const RecordColumns& right,
                     const uint32_t* left_idx, const uint32_t* right_idx,
                     size_t num_pairs, text::IdSetMetric metric, double* out) {
  text::BatchIdSetSimilarity(left.KernelView(), right.KernelView(), left_idx,
                             right_idx, num_pairs, metric, out);
}

}  // namespace humo::data
