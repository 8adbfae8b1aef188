#ifndef ERBIUM_STORAGE_INDEX_H_
#define ERBIUM_STORAGE_INDEX_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/key_table.h"
#include "common/value.h"

namespace erbium {

/// Stable identifier of a row within one table (slot number; never reused
/// while the table lives, deleted slots are tombstoned).
using RowId = uint64_t;

using IndexKey = std::vector<Value>;

/// Hash index from composite keys of `arity` values to row ids: a
/// KeyTable of distinct keys plus a postings list per key entry. The
/// first posting of an entry lives beside it; further ones are chained
/// through one shared node arena with a free list, so no key or posting
/// allocates on its own.
///
/// Postings keep multiplicity: Add of a (key, id) pair already present
/// posts it again and Erase removes one occurrence. A table's deferred
/// erasure relies on this — a row whose key flips A→B→A while a version
/// is pinned holds (A, id) twice until the queued erase drops one copy.
///
/// Keys with a null component are never indexed (SQL semantics: null
/// never equals null). An entry whose postings empty out stays in the
/// KeyTable; once such dead entries reach half the table, it is rebuilt
/// from the stored hashes, so delete churn cannot grow it without bound.
///
/// Not synchronized: the owner serializes Add/Erase against probes.
class KeyIndex {
 public:
  static constexpr RowId kNoRow = std::numeric_limits<RowId>::max();

  explicit KeyIndex(size_t arity) : keys_(arity) {}

  size_t arity() const { return keys_.arity(); }
  /// Number of (key, id) postings, counting duplicates.
  size_t size() const { return postings_; }
  /// Key entries held, dead ones included (bounded by ~2x the live keys).
  size_t entry_count() const { return keys_.size(); }

  void Add(const Value* key, RowId id);
  /// Removes one occurrence of (key, id); absent pairs are ignored.
  void Erase(const Value* key, RowId id);
  /// Appends every id posted under `key`, duplicates included.
  void Lookup(const Value* key, std::vector<RowId>* out) const;
  /// One id posted under `key`, or kNoRow.
  RowId First(const Value* key) const;

 private:
  static constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();

  struct Posting {
    RowId id;       // kNoRow in a head: the entry is dead
    uint32_t next;  // next node in overflow_, or kEnd
  };

  const Posting* Head(const Value* key) const;
  /// Rebuilds keys_ and the postings with only the live entries.
  void Compact();

  KeyTable keys_;
  std::vector<Posting> heads_;     // one per key entry
  std::vector<Posting> overflow_;  // chained further postings
  uint32_t free_ = kEnd;           // free list through overflow_
  size_t postings_ = 0;
  size_t dead_ = 0;
};

}  // namespace erbium

#endif  // ERBIUM_STORAGE_INDEX_H_
