#include "data/record_columns.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace humo::data {
namespace {

/// Records per tokenization task (string work dominates; small-ish grain
/// balances skewed attribute lengths).
constexpr size_t kTokenizeGrain = 256;

}  // namespace

RecordColumns RecordColumns::Build(const RecordTable& table,
                                   size_t attribute_index,
                                   text::TokenDictionary* dict) {
  const size_t n = table.size();
  RecordColumns cols;
  cols.offsets_.assign(n + 1, 0);
  if (n == 0) return cols;

  // Phase 1 (parallel, index-addressed): normalize each record's value once
  // into its slot, then split, sort and dedup string_views into that one
  // string, with per-token counts. NormalizeForMatching leaves only single
  // ' ' separators and no leading/trailing one, so splitting on ' ' yields
  // exactly text::WordTokens' tokens, with no per-token allocation; the
  // token list is sized once, to the distinct count.
  struct RecordTokens {
    std::string text;  // normalized value
    // Sorted unique views of text, each with its term frequency.
    std::vector<std::pair<std::string_view, uint32_t>> tokens;
  };
  std::vector<RecordTokens> tokenized(n);
  ThreadPool::Global()->ParallelFor(
      n, kTokenizeGrain, [&](size_t begin, size_t end) {
        std::vector<std::string_view> toks;
        for (size_t r = begin; r < end; ++r) {
          RecordTokens& out = tokenized[r];
          out.text = NormalizeForMatching(table[r].attributes[attribute_index]);
          const std::string_view text = out.text;
          toks.clear();
          for (size_t b = 0; b < text.size();) {
            size_t e = text.find(' ', b);
            if (e == std::string_view::npos) e = text.size();
            toks.push_back(text.substr(b, e - b));
            b = e + 1;
          }
          std::sort(toks.begin(), toks.end());
          size_t distinct = 0;
          for (size_t i = 0; i < toks.size(); ++i) {
            distinct += i == 0 || toks[i] != toks[i - 1];
          }
          out.tokens.reserve(distinct);
          for (size_t i = 0; i < toks.size();) {
            size_t j = i + 1;
            while (j < toks.size() && toks[j] == toks[i]) ++j;
            out.tokens.emplace_back(toks[i], static_cast<uint32_t>(j - i));
            i = j;
          }
        }
      });

  // Phase 2 (serial, record order): intern into the shared dictionary.
  // Interning order — and with it every id — depends only on the table's
  // record order, never on scheduling. Per-record ids are then re-sorted:
  // tokens were sorted lexicographically, but ids are assigned first-seen,
  // so id order is NOT token order.
  size_t total = 0;
  for (const RecordTokens& rt : tokenized) total += rt.tokens.size();
  if (total > UINT32_MAX) {
    std::fprintf(stderr,
                 "RecordColumns::Build: %zu token ids exceed the uint32 "
                 "offset range\n",
                 total);
    std::abort();
  }
  cols.token_ids_.reserve(total);
  cols.term_freq_.reserve(total);
  std::vector<std::pair<uint32_t, uint32_t>> scratch;  // (id, tf)
  for (size_t r = 0; r < n; ++r) {
    const RecordTokens& rt = tokenized[r];
    scratch.clear();
    scratch.reserve(rt.tokens.size());
    for (const auto& [token, tf] : rt.tokens) {
      scratch.emplace_back(dict->Intern(token), tf);
    }
    std::sort(scratch.begin(), scratch.end());
    const uint32_t base = cols.offsets_[r];
    cols.offsets_[r + 1] = base + static_cast<uint32_t>(scratch.size());
    for (const auto& [id, tf] : scratch) {
      cols.token_ids_.push_back(id);
      cols.term_freq_.push_back(tf);
    }
    dict->CountDocument(cols.token_ids_.data() + base, scratch.size());
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
