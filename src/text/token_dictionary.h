#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace humo::text {

/// Interns token strings into dense uint32 ids, assigned in first-seen
/// order. Interning is the ONE place the raw-record hot path touches token
/// strings: everything downstream (record columns, similarity kernels,
/// MinHash signatures, TF-IDF weights) operates on the integer ids. Because
/// ids are assigned by insertion order, a dictionary built by iterating
/// records in table order is deterministic — independent of the hash
/// function, thread count, and platform.
///
/// Layout: every token's bytes live once, back to back, in one arena
/// (`bytes_`; token `id` is [starts_[id], starts_[id + 1])). A power-of-two
/// open-addressed table of ids (linear probing, load <= 1/2) finds a token
/// by its 64-bit hash, cached per id so growing the table never rereads
/// token bytes. Intern and IdOf take a string_view and allocate nothing
/// unless the token is new (and then only amortized arena/table growth).
///
/// Offsets are uint32, so the arena holds at most UINT32_MAX bytes and the
/// dictionary fewer than kNoToken ids; Intern aborts beyond either limit in
/// every build type rather than wrap.
///
/// The dictionary also tracks per-token document frequency (via
/// CountDocument), the statistic TfIdfModel::FitDictionary turns into an
/// id-indexed IDF table.
class TokenDictionary {
 public:
  /// Id of `token`, interning it if unseen. Ids are dense: 0, 1, 2, ...
  uint32_t Intern(std::string_view token);

  /// Id of `token`, or kNoToken when it was never interned.
  static constexpr uint32_t kNoToken = UINT32_MAX;
  uint32_t IdOf(std::string_view token) const;

  /// Token bytes for an id (a view into the arena: valid until the next
  /// Intern of an unseen token).
  std::string_view TokenOf(uint32_t id) const {
    return {bytes_.data() + starts_[id], starts_[id + 1] - starts_[id]};
  }

  size_t size() const { return hashes_.size(); }

  /// Bumps the document frequency of every id in [ids, ids + n). Callers
  /// pass each document's DEDUPLICATED ids exactly once, mirroring
  /// TfIdfModel::Fit's per-document dedup.
  void CountDocument(const uint32_t* ids, size_t n);

  /// Documents counted so far and per-id document frequency.
  size_t num_documents() const { return num_documents_; }
  const std::vector<uint32_t>& doc_freq() const { return doc_freq_; }

 private:
  /// Slot of `token` (hash `h`) in slots_: the slot holding its id, or the
  /// empty slot where it would go. slots_ must be non-empty.
  size_t FindSlot(std::string_view token, uint64_t h) const;
  /// Doubles slots_ (or allocates it) and reinserts every id by its cached
  /// hash.
  void Grow();

  std::string bytes_;                // token bytes, back to back
  std::vector<uint32_t> starts_{0};  // size() + 1 arena offsets
  std::vector<uint64_t> hashes_;     // per id
  std::vector<uint32_t> slots_;      // ids; kNoToken marks an empty slot
  std::vector<uint32_t> doc_freq_;
  size_t num_documents_ = 0;
};

}  // namespace humo::text
