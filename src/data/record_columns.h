#pragma once

#include <cstdint>
#include <vector>

#include "data/record.h"
#include "text/simd_similarity.h"
#include "text/tfidf.h"
#include "text/token_dictionary.h"

namespace humo::data {

/// Structure-of-arrays tokenized view of ONE attribute of a RecordTable:
/// record r owns the sorted unique dictionary ids
/// token_ids[offsets[r] .. offsets[r+1]) with parallel term frequencies
/// and (after AttachTfIdf) L2-normalized TF-IDF weights. This is the
/// "tokenize once, score many" contract of the raw-record hot path: the
/// table's strings are normalized, tokenized, and interned exactly once,
/// and every downstream consumer — batched similarity kernels, MinHash
/// signatures, TF-IDF cosine — walks contiguous integer/double columns.
///
/// Building is deterministic: tokenization runs parallel over the thread
/// pool, each task into one arena addressed by its task index, and
/// interning runs serially in record order, so ids (and everything derived
/// from them) are bit-identical at any thread count and independent of the
/// dictionary's hash function. A task's arena holds its records' normalized
/// token bytes back to back plus (offset, length, tf) spans of each
/// record's sorted distinct tokens: nothing is allocated per record or per
/// token until the dictionary copies each distinct token into its own
/// arena, through batched, prefetched probes (TokenDictionary::InternBatch).
class RecordColumns {
 public:
  RecordColumns() = default;

  /// Tokenizes `attribute_index` of every record (the tokens of
  /// WordTokens(NormalizeForMatching(value)), through the same kMatchFold
  /// table the string scorers' normalization reads), interns
  /// into `dict` (shared across tables so both sides agree on ids), sorts
  /// and dedups each record's ids, and accumulates per-record tf plus the
  /// dictionary's document frequencies. One dictionary document is counted
  /// per record. Offsets are uint32: aborts in every build type, rather
  /// than wrap, when the table's total ids exceed UINT32_MAX (and, via
  /// TokenDictionary::InternBatch, when the dictionary's arena would, or
  /// when one tokenization task's normalized bytes would).
  static RecordColumns Build(const RecordTable& table, size_t attribute_index,
                             text::TokenDictionary* dict);

  size_t num_records() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Half-open id range of record r.
  const uint32_t* ids(size_t r) const {
    return token_ids_.data() + offsets_[r];
  }
  size_t num_ids(size_t r) const { return offsets_[r + 1] - offsets_[r]; }

  const std::vector<uint32_t>& offsets() const { return offsets_; }
  const std::vector<uint32_t>& token_ids() const { return token_ids_; }
  const std::vector<uint32_t>& term_freq() const { return term_freq_; }
  /// Per-id TF-IDF weights (empty until AttachTfIdf).
  const std::vector<double>& weights() const { return weights_; }

  /// Fills the weight column from `model`, which TfIdfModel::FitDictionary
  /// fitted on the same dictionary.
  void AttachTfIdf(const text::TfIdfModel& model);

  /// Zero-copy kernel view for text::BatchIdSetSimilarity. Weights are
  /// included when attached.
  text::IdSetColumns KernelView() const {
    return {offsets_.data(), token_ids_.data(),
            weights_.empty() ? nullptr : weights_.data()};
  }

 private:
  std::vector<uint32_t> offsets_;    // num_records + 1
  std::vector<uint32_t> token_ids_;  // sorted unique per record
  std::vector<uint32_t> term_freq_;  // parallel to token_ids_
  std::vector<double> weights_;      // parallel to token_ids_ (optional)
};

/// Convenience: batch-scores `num_pairs` (left record, right record) index
/// pairs under `metric` into `out`. Thin wrapper over
/// text::BatchIdSetSimilarity with both sides' kernel views.
void BatchScorePairs(const RecordColumns& left, const RecordColumns& right,
                     const uint32_t* left_idx, const uint32_t* right_idx,
                     size_t num_pairs, text::IdSetMetric metric, double* out);

}  // namespace humo::data
