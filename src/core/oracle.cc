#include "core/oracle.h"

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
  // known bit is set as each is collected, so a repeat within the batch is
  // skipped without a set or a sort. Their answer bits are filled in below,
  // once answered; no provider reads this memory while it answers.
  std::vector<size_t> fresh;
  fresh.reserve(indices.size());
  for (const size_t index : indices) {
    assert(index < workload_->size());
    if (answers_.Record(index, false)) fresh.push_back(index);
  }
  if (!provider_) {
    for (const size_t index : fresh) {
      if (InlineAnswer(index)) answers_.SetMatch(index);
    }
  } else if (!fresh.empty()) {
    const std::vector<char> fresh_answers = provider_(fresh);
    assert(fresh_answers.size() == fresh.size());
    for (size_t t = 0; t < fresh.size(); ++t) {
      if (fresh_answers[t] != 0) answers_.SetMatch(fresh[t]);
    }
  }
  inspected_ += fresh.size();

  total_requests_ += indices.size();
  std::vector<char> answers(indices.size());
  for (size_t t = 0; t < indices.size(); ++t) {
    answers[t] = answers_.Answer(indices[t]) ? 1 : 0;
  }
  return answers;
}

void Oracle::Preload(size_t index, bool answer) {
  assert(index < workload_->size());
  if (answers_.Record(index, answer)) ++preloaded_;
}

double Oracle::CostFraction() const {
  if (workload_->size() == 0) return 0.0;
  return static_cast<double>(cost()) / static_cast<double>(workload_->size());
}

}  // namespace humo::core
