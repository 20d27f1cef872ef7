#include "text/tfidf.h"

#include <cmath>
#include <unordered_set>

namespace humo::text {

double TfIdfModel::IdfOfCount(double df) const {
  return std::log((1.0 + static_cast<double>(num_documents_)) / (1.0 + df)) +
         1.0;
}

void TfIdfModel::Fit(const std::vector<std::vector<std::string>>& corpus) {
  idf_.clear();
  idf_by_id_.clear();
  num_documents_ = corpus.size();
  std::unordered_map<std::string, size_t> doc_freq;
  for (const auto& doc : corpus) {
    std::unordered_set<std::string> seen(doc.begin(), doc.end());
    for (const auto& t : seen) ++doc_freq[t];
  }
  idf_.reserve(doc_freq.size());
  for (const auto& [tok, df] : doc_freq) {
    idf_.emplace(tok, IdfOfCount(static_cast<double>(df)));
  }
}

void TfIdfModel::FitDictionary(const TokenDictionary& dict) {
  idf_.clear();
  num_documents_ = dict.num_documents();
  const std::vector<uint32_t>& df = dict.doc_freq();
  idf_by_id_.resize(df.size());
  for (size_t id = 0; id < df.size(); ++id) {
    idf_by_id_[id] = IdfOfCount(static_cast<double>(df[id]));
  }
}

double TfIdfModel::Idf(const std::string& token) const {
  const auto it = idf_.find(token);
  if (it != idf_.end()) return it->second;
  return IdfOfCount(0.0);
}

double TfIdfModel::IdfById(uint32_t id) const {
  if (id < idf_by_id_.size()) return idf_by_id_[id];
  return IdfOfCount(0.0);
}

void TfIdfModel::TransformIds(const uint32_t* ids, const uint32_t* tf,
                              size_t n, double* weights) const {
  double norm_sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double w = static_cast<double>(tf[i]) * IdfById(ids[i]);
    weights[i] = w;
    norm_sq += w * w;
  }
  if (norm_sq > 0.0) {
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (size_t i = 0; i < n; ++i) weights[i] *= inv;
  }
}

SparseVector TfIdfModel::Transform(const std::vector<std::string>& doc) const {
  SparseVector v;
  for (const auto& t : doc) v[t] += 1.0;
  double norm_sq = 0.0;
  for (auto& [tok, tf] : v) {
    tf *= Idf(tok);
    norm_sq += tf * tf;
  }
  if (norm_sq > 0.0) {
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (auto& [tok, w] : v) w *= inv;
  }
  return v;
}

double TfIdfModel::Cosine(const SparseVector& a, const SparseVector& b) {
  const SparseVector& small = a.size() <= b.size() ? a : b;
  const SparseVector& large = a.size() <= b.size() ? b : a;
  double dot = 0.0;
  for (const auto& [tok, w] : small) {
    const auto it = large.find(tok);
    if (it != large.end()) dot += w * it->second;
  }
  return dot;
}

}  // namespace humo::text
