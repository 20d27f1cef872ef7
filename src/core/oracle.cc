#include "core/oracle.h"

#include <algorithm>
#include <cassert>

namespace humo::core {

double HashToUnit(uint64_t seed, uint64_t index, uint64_t worker) {
  uint64_t z = seed ^ (index * 0x9E3779B97F4A7C15ULL) ^
               (worker * 0xBF58476D1CE4E5B9ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

Oracle::Oracle(const data::Workload* workload, double error_rate,
               uint64_t seed)
    : workload_(workload), error_rate_(error_rate), seed_(seed) {
  assert(workload_ != nullptr);
  assert(error_rate_ >= 0.0 && error_rate_ <= 1.0);
}

bool Oracle::InlineAnswer(size_t index) const {
  assert(index < workload_->size());
  bool truth = workload_->IsMatch(index);
  if (error_rate_ > 0.0 &&
      HashToUnit(seed_, static_cast<uint64_t>(index)) < error_rate_) {
    truth = !truth;
  }
  return truth;
}

bool Oracle::Label(size_t index) { return InspectBatch({index})[0] != 0; }

std::vector<char> Oracle::InspectBatch(const std::vector<size_t>& indices) {
  // Claim the distinct unanswered indices in first-occurrence order: the
  // known bit is set as each is met, so a repeat within the batch is
  // skipped without a set or a sort. Inline answers are recorded as they
  // are claimed; a provider gets the claimed indices as one list and its
  // answers fill in the match bits below (it never reads this memory).
  std::vector<size_t> fresh;
  for (const size_t index : indices) {
    assert(index < workload_->size());
    if (provider_) {
      if (Record(index, false)) fresh.push_back(index);
    } else if (!WasAsked(index)) {
      Record(index, InlineAnswer(index));
      ++inspected_;
    }
  }
  if (!fresh.empty()) {
    const std::vector<char> fresh_answers = provider_(fresh);
    assert(fresh_answers.size() == fresh.size());
    for (size_t t = 0; t < fresh.size(); ++t) {
      if (fresh_answers[t] != 0) {
        match_[fresh[t] / 64] |= uint64_t{1} << (fresh[t] % 64);
      }
    }
    inspected_ += fresh.size();
  }

  total_requests_ += indices.size();
  std::vector<char> answers(indices.size());
  for (size_t t = 0; t < indices.size(); ++t) {
    answers[t] = CachedAnswer(indices[t]) ? 1 : 0;
  }
  return answers;
}

void Oracle::Preload(size_t index, bool answer) {
  assert(index < workload_->size());
  if (Record(index, answer)) ++preloaded_;
}

void Oracle::MoveForInsertions(const std::vector<size_t>& landed) {
  // Every old index moves up by at most landed.size(), so the moved bitsets
  // need that many more bits than the old ones cover.
  const size_t words = known_.size() + (landed.size() + 63) / 64;
  std::vector<uint64_t> known(words);
  std::vector<uint64_t> match(words);
  size_t shift = 0;
  for (size_t w = 0; w < known_.size(); ++w) {
    for (uint64_t bits = known_[w]; bits != 0; bits &= bits - 1) {
      const int bit = __builtin_ctzll(bits);
      const size_t index = w * 64 + static_cast<size_t>(bit);
      while (shift < landed.size() && landed[shift] <= index + shift) {
        ++shift;
      }
      const size_t to = index + shift;
      known[to / 64] |= uint64_t{1} << (to % 64);
      match[to / 64] |= ((match_[w] >> bit) & 1u) << (to % 64);
    }
  }
  known_ = std::move(known);
  match_ = std::move(match);
}

bool Oracle::Record(size_t index, bool answer) {
  const size_t w = index / 64;
  if (w >= known_.size()) {
    // Cover the whole workload at once rather than word by word: answers
    // arrive across it (DH runs, sampled subsets), and it only grows.
    const size_t words = std::max(w + 1, (workload_->size() + 63) / 64);
    known_.resize(words);
    match_.resize(words);
  }
  const uint64_t bit = uint64_t{1} << (index % 64);
  if (known_[w] & bit) return false;
  known_[w] |= bit;
  if (answer) match_[w] |= bit;
  return true;
}

double Oracle::CostFraction() const {
  if (workload_->size() == 0) return 0.0;
  return static_cast<double>(cost()) / static_cast<double>(workload_->size());
}

}  // namespace humo::core
