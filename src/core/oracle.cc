#include "core/oracle.h"

#include <cassert>
#include <unordered_set>

namespace humo::core {
namespace {

/// Deterministic per-(seed, index) hash -> [0,1) double, so error injection
/// is stable across repeat queries.
double HashToUnit(uint64_t seed, uint64_t index) {
  uint64_t z = seed ^ (index * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace

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

bool Oracle::Label(size_t index) {
  assert(index < workload_->size());
  ++total_requests_;
  if (answers_.Known(index)) return answers_.Answer(index);
  bool truth;
  if (provider_) {
    truth = provider_({index}).at(0) != 0;
  } else {
    truth = InlineAnswer(index);
  }
  answers_.Record(index, truth);
  ++inspected_;
  return truth;
}

std::vector<char> Oracle::InspectBatch(const std::vector<size_t>& indices) {
  if (!provider_) {
    std::vector<char> answers(indices.size());
    for (size_t t = 0; t < indices.size(); ++t) {
      answers[t] = Label(indices[t]) ? 1 : 0;
    }
    return answers;
  }
  // Provider mode: ship every distinct unanswered index of the batch as ONE
  // request (one crowd task), then serve the whole batch from memory. The
  // counters end up exactly where the inline loop would put them.
  std::vector<size_t> fresh;
  fresh.reserve(indices.size());
  std::unordered_set<size_t> queued;
  for (const size_t index : indices) {
    assert(index < workload_->size());
    // Recording before the provider answers would hand it a stale bit;
    // instead dedup against both memory and this request list.
    if (!answers_.Known(index) && queued.insert(index).second) {
      fresh.push_back(index);
    }
  }
  if (!fresh.empty()) {
    const std::vector<char> fresh_answers = provider_(fresh);
    assert(fresh_answers.size() == fresh.size());
    for (size_t t = 0; t < fresh.size(); ++t) {
      answers_.Record(fresh[t], fresh_answers[t] != 0);
      ++inspected_;
    }
  }
  std::vector<char> answers(indices.size());
  for (size_t t = 0; t < indices.size(); ++t) {
    ++total_requests_;
    answers[t] = answers_.Answer(indices[t]) ? 1 : 0;
  }
  return answers;
}

size_t Oracle::InspectRange(size_t begin, size_t end) {
  assert(begin <= end && end <= workload_->size());
  if (provider_) {
    std::vector<size_t> range(end - begin);
    for (size_t i = begin; i < end; ++i) range[i - begin] = i;
    const std::vector<char> answers = InspectBatch(range);
    size_t matches = 0;
    for (const char a : answers) matches += a != 0;
    return matches;
  }
  size_t matches = 0;
  for (size_t i = begin; i < end; ++i) matches += Label(i);
  return matches;
}

void Oracle::Preload(size_t index, bool answer) {
  assert(index < workload_->size());
  if (answers_.Record(index, answer)) ++preloaded_;
}

double Oracle::CostFraction() const {
  if (workload_->size() == 0) return 0.0;
  return static_cast<double>(cost()) / static_cast<double>(workload_->size());
}

void Oracle::Reset() {
  answers_.Clear();
  total_requests_ = 0;
  inspected_ = 0;
  preloaded_ = 0;
}

}  // namespace humo::core
