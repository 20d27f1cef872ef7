#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "text/token_dictionary.h"

namespace humo::text {

/// Sparse TF-IDF vector: token -> weight.
using SparseVector = std::unordered_map<std::string, double>;

/// Corpus-level TF-IDF model. Fit on a collection of documents (each a token
/// list), then transform documents into L2-normalized sparse vectors whose
/// dot product is the cosine similarity.
///
/// Two APIs share one class but not one fit:
///  * The string API (Fit, then Idf/Transform/Cosine over SparseVector) —
///    convenient, and kept for callers that do not hold a dictionary. It
///    answers from Fit alone: after FitDictionary, Idf gives every token
///    the unseen (df = 0) smoothing.
///  * The id API (FitDictionary, then IdfById/TransformIds) — the raw-record
///    hot path: IDF becomes one array lookup per token id and Transform
///    writes weights into a caller-provided contiguous column, no hashing
///    and no per-document map allocation. It answers from FitDictionary
///    alone.
/// On the same corpus the two agree bitwise: IdfById(id) of FitDictionary
/// equals Idf(token) of Fit, since both evaluate IdfOfCount on the same
/// integer document frequency.
class TfIdfModel {
 public:
  /// Builds document frequencies from the corpus and caches every seen
  /// token's IDF value (Idf() is then a single hash lookup, not a log()).
  void Fit(const std::vector<std::vector<std::string>>& corpus);

  /// Fits the id API from dictionary statistics: `dict.num_documents()`
  /// documents with `dict.doc_freq()` per-id frequencies (as accumulated by
  /// TokenDictionary::CountDocument). Touches no token string; clears the
  /// string API's fit.
  void FitDictionary(const TokenDictionary& dict);

  /// Number of documents seen during Fit/FitDictionary.
  size_t num_documents() const { return num_documents_; }

  /// Smoothed inverse document frequency of `token`:
  /// log((1 + N) / (1 + df)) + 1. Cached at Fit time for seen tokens;
  /// unseen tokens pay one log().
  double Idf(const std::string& token) const;

  /// IDF by token id from FitDictionary; ids beyond the fitted dictionary
  /// (and every id after Fit) get the unseen-token smoothing.
  double IdfById(uint32_t id) const;

  /// Id-based Transform: the document is `n` sorted unique token ids with
  /// term frequencies `tf`; writes the L2-normalized TF-IDF weights to
  /// `weights` (length n). The contiguous-column counterpart of
  /// Transform(): same math, zero allocation.
  void TransformIds(const uint32_t* ids, const uint32_t* tf, size_t n,
                    double* weights) const;

  /// TF-IDF vector of a document, L2-normalized. Term frequency is raw
  /// count. Thin string-keyed wrapper over the same weighting the id path
  /// applies.
  SparseVector Transform(const std::vector<std::string>& doc) const;

  /// Cosine similarity between two already-normalized sparse vectors.
  static double Cosine(const SparseVector& a, const SparseVector& b);

 private:
  double IdfOfCount(double df) const;

  /// IDF cache keyed by token, filled in Fit — Transform's inner loop reads
  /// this instead of recomputing log((1+N)/(1+df)) per occurrence.
  std::unordered_map<std::string, double> idf_;
  /// IDF by dictionary id, filled in FitDictionary.
  std::vector<double> idf_by_id_;
  size_t num_documents_ = 0;
};

}  // namespace humo::text
