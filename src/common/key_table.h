#ifndef ERBIUM_COMMON_KEY_TABLE_H_
#define ERBIUM_COMMON_KEY_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/value.h"

namespace erbium {

// The process's one hash table: flat open addressing over composite keys
// of Values. Hash joins, hash aggregation and DISTINCT (exec/hash_table.h)
// and the storage and factorized-pair key indexes (storage/index.h) all
// use it, so every composite key has one hash and one equality rule.
// Callers hash a key once with HashKey and pass (hash, key span) — no
// per-key vector is allocated.

/// Final avalanche (MurmurHash3 fmix64). Value::Hash of small integers
/// and boost-style combining leave the low bits weak; slot indexes come
/// from the low bits, so every key hash goes through this.
inline uint64_t MixHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Hash of one value, consistent with Value::operator==: numbers hash by
/// their double value (Int64(2) == Float64(2.0)), -0.0 as 0.0.
inline uint64_t KeyValueHash(const Value& v) {
  TypeKind kind = v.kind();
  if (kind == TypeKind::kInt64 || kind == TypeKind::kFloat64) {
    double d = v.AsFloat64();
    if (d == 0) d = 0;  // folds -0.0
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
  }
  return v.Hash();
}

/// Mixed hash of a composite key of `n` values.
inline uint64_t HashKey(const Value* key, size_t n) {
  uint64_t h = 0x726f7773ULL;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ KeyValueHash(key[i])) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  }
  return MixHash(h);
}

inline bool KeyEquals(const Value* a, const Value* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i].kind() == TypeKind::kInt64 && b[i].kind() == TypeKind::kInt64) {
      if (a[i].as_int64() != b[i].as_int64()) return false;
    } else if (a[i].Compare(b[i]) != 0) {
      return false;
    }
  }
  return true;
}

inline bool KeyHasNull(const Value* key, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (key[i].is_null()) return true;
  }
  return false;
}

/// The values of `row` at `columns`, in column order.
inline Row GatherKey(const Row& row, const std::vector<int>& columns) {
  Row key;
  key.reserve(columns.size());
  for (int c : columns) key.push_back(row[c]);
  return key;
}

/// Set of distinct composite keys of `arity` values each, numbered with
/// dense entry ids in first-insert order. Slots are a power-of-two array
/// probed linearly; each slot packs the upper half of the key's mixed
/// hash (a tag that filters most mismatches without touching the key)
/// with the entry id. Keys live inline in one Value arena, `arity` values
/// per entry, and each entry keeps its full hash, so growth rehashes
/// without reading keys and merges reuse hashes.
///
/// Allocation is lazy: Reset records a size hint, and the first insert
/// allocates for it. Reset of a used table keeps its capacity.
class KeyTable {
 public:
  static constexpr uint32_t kNotFound = std::numeric_limits<uint32_t>::max();

  explicit KeyTable(size_t arity) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t size() const { return hashes_.size(); }

  /// Drops every entry; `expected_entries` sizes the first allocation.
  void Reset(size_t expected_entries) {
    hashes_.clear();
    keys_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
    expected_ = expected_entries;
  }

  /// Entry id of `key`, or kNotFound.
  uint32_t Find(uint64_t hash, const Value* key) const {
    if (slots_.empty()) return kNotFound;
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i];
      if (slot == 0) return kNotFound;
      if (static_cast<uint32_t>(slot >> 32) == tag) {
        const uint32_t id = static_cast<uint32_t>(slot) - 1;
        if (KeyEquals(keys_.data() + id * arity_, key, arity_)) return id;
      }
    }
  }

  /// Entry id of `key`, inserting a copy of it when absent; `second` is
  /// true when the entry is new (its id is then size() - 1).
  std::pair<uint32_t, bool> FindOrInsert(uint64_t hash, const Value* key) {
    if ((hashes_.size() + 1) * 4 > slots_.size() * 3) Grow();
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    size_t i = hash & mask_;
    for (;; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i];
      if (slot == 0) break;
      if (static_cast<uint32_t>(slot >> 32) == tag) {
        const uint32_t id = static_cast<uint32_t>(slot) - 1;
        if (KeyEquals(keys_.data() + id * arity_, key, arity_)) {
          return {id, false};
        }
      }
    }
    const uint32_t id = static_cast<uint32_t>(hashes_.size());
    slots_[i] = Slot(hash, id);
    hashes_.push_back(hash);
    keys_.insert(keys_.end(), key, key + arity_);
    return {id, true};
  }

  uint64_t hash(uint32_t id) const { return hashes_[id]; }
  const Value* key(uint32_t id) const { return keys_.data() + id * arity_; }
  /// Mutable key values, for consumers that move keys out when the table
  /// is done (the table must be Reset before its next use).
  Value* mutable_key(uint32_t id) { return keys_.data() + id * arity_; }

 private:
  static uint64_t Slot(uint64_t hash, uint32_t id) {
    return (hash >> 32 << 32) | (static_cast<uint64_t>(id) + 1);
  }

  void Grow() {
    constexpr size_t kMinSlots = 16;
    // Capped so an over-estimating upper bound cannot balloon the first
    // allocation; past it the table doubles as it fills.
    constexpr size_t kMaxInitialEntries = size_t{1} << 16;
    size_t want = std::max(hashes_.size() + 1,
                           std::min(expected_, kMaxInitialEntries));
    size_t cap = std::max(slots_.size() * 2, kMinSlots);
    while (want * 4 > cap * 3) cap *= 2;
    slots_.assign(cap, 0);
    mask_ = cap - 1;
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      size_t i = hashes_[id] & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = Slot(hashes_[id], id);
    }
    if (keys_.empty()) keys_.reserve(want * arity_);
    if (hashes_.empty()) hashes_.reserve(want);
  }

  size_t arity_;
  size_t expected_ = 0;
  size_t mask_ = 0;
  std::vector<uint64_t> slots_;  // 0 = empty, else tag << 32 | (id + 1)
  std::vector<uint64_t> hashes_;
  std::vector<Value> keys_;
};

}  // namespace erbium

#endif  // ERBIUM_COMMON_KEY_TABLE_H_
