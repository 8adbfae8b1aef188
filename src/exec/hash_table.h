#ifndef ERBIUM_EXEC_HASH_TABLE_H_
#define ERBIUM_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/key_table.h"
#include "exec/expr.h"

namespace erbium {

// Hash joins build on JoinTable; hash aggregation and DISTINCT use
// KeyTable (common/key_table.h) directly.

/// Evaluates key expressions over `row` into `key`, reusing its buffer.
inline void EvalKeys(const std::vector<ExprPtr>& exprs, const Row& row,
                     Row* key) {
  key->clear();
  for (const ExprPtr& e : exprs) key->push_back(e->Eval(row));
}

/// Hash-join build side: build rows grouped by join key. Rows move into
/// one arena; each key entry heads a chain of row ids linked through
/// `next`, in insertion order.
class JoinTable {
 public:
  explicit JoinTable(size_t arity) : keys_(arity) {}

  void Reset(size_t expected_rows) {
    keys_.Reset(expected_rows);
    chains_.clear();
    rows_.clear();
    next_.clear();
  }

  /// Adds a build row under `key` (which must have no nulls).
  void Insert(uint64_t hash, const Value* key, Row row) {
    const auto id = static_cast<int32_t>(rows_.size());
    rows_.push_back(std::move(row));
    next_.push_back(-1);
    auto [entry, inserted] = keys_.FindOrInsert(hash, key);
    if (inserted) {
      chains_.push_back({id, id});
    } else {
      next_[chains_[entry].tail] = id;
      chains_[entry].tail = id;
    }
  }

  /// First build row matching `key`, or -1.
  int32_t Find(uint64_t hash, const Value* key) const {
    uint32_t entry = keys_.Find(hash, key);
    return entry == KeyTable::kNotFound ? -1 : chains_[entry].head;
  }
  /// The row after `row` in its key's chain, or -1.
  int32_t next(int32_t row) const { return next_[row]; }
  const Row& row(int32_t id) const { return rows_[id]; }

 private:
  struct Chain {
    int32_t head;
    int32_t tail;
  };

  KeyTable keys_;
  std::vector<Chain> chains_;  // per key entry
  std::vector<Row> rows_;
  std::vector<int32_t> next_;  // per row
};

}  // namespace erbium

#endif  // ERBIUM_EXEC_HASH_TABLE_H_
