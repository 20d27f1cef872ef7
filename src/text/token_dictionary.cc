#include "text/token_dictionary.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace humo::text {
namespace {

/// SplitMix64 finalizer.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Word-at-a-time token hash: one Mix64 per 8 bytes (most tokens are one
/// word). Only slot placement depends on it, never an id.
uint64_t HashToken(std::string_view s) {
  uint64_t h = 0x9E3779B97F4A7C15ULL * (s.size() + 1);
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = Mix64(h ^ w);
  }
  if (i < s.size()) {
    uint64_t w = 0;
    std::memcpy(&w, s.data() + i, s.size() - i);
    h ^= w;
  }
  return Mix64(h);
}

}  // namespace

size_t TokenDictionary::FindSlot(std::string_view token, uint64_t h) const {
  const size_t mask = slots_.size() - 1;
  for (size_t pos = h & mask;; pos = (pos + 1) & mask) {
    const uint32_t id = slots_[pos];
    if (id == kNoToken || (hashes_[id] == h && TokenOf(id) == token)) {
      return pos;
    }
  }
}

void TokenDictionary::Grow() {
  const size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
  slots_.assign(capacity, kNoToken);
  const size_t mask = capacity - 1;
  for (uint32_t id = 0; id < size(); ++id) {
    size_t pos = hashes_[id] & mask;
    while (slots_[pos] != kNoToken) pos = (pos + 1) & mask;
    slots_[pos] = id;
  }
}

uint32_t TokenDictionary::Intern(std::string_view token) {
  const uint64_t h = HashToken(token);
  size_t pos = 0;
  if (!slots_.empty()) {
    pos = FindSlot(token, h);
    if (slots_[pos] != kNoToken) return slots_[pos];
  }
  const size_t id = size();
  if (id >= kNoToken || token.size() > UINT32_MAX - bytes_.size()) {
    std::fprintf(stderr,
                 "TokenDictionary: %zu ids / %zu arena bytes + a %zu-byte "
                 "token exceed the uint32 id and offset range\n",
                 id, bytes_.size(), token.size());
    std::abort();
  }
  if (2 * (id + 1) > slots_.size()) {
    Grow();
    pos = FindSlot(token, h);
  }
  bytes_.append(token);
  starts_.push_back(static_cast<uint32_t>(bytes_.size()));
  hashes_.push_back(h);
  doc_freq_.push_back(0);
  slots_[pos] = static_cast<uint32_t>(id);
  return static_cast<uint32_t>(id);
}

uint32_t TokenDictionary::IdOf(std::string_view token) const {
  if (slots_.empty()) return kNoToken;
  return slots_[FindSlot(token, HashToken(token))];
}

void TokenDictionary::CountDocument(const uint32_t* ids, size_t n) {
  ++num_documents_;
  for (size_t i = 0; i < n; ++i) ++doc_freq_[ids[i]];
}

}  // namespace humo::text
