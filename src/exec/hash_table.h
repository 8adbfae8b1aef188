#ifndef ERBIUM_EXEC_HASH_TABLE_H_
#define ERBIUM_EXEC_HASH_TABLE_H_

#include <cassert>
#include <cstdint>
#include <iterator>
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

/// Hash-join build side: build rows grouped by join key. Rows of `width`
/// values each live back to back in one Value arena, so a build costs no
/// allocation per row; each key entry heads a chain of row ids linked
/// through `next`, in insertion order.
class JoinTable {
 public:
  JoinTable(size_t arity, size_t width) : keys_(arity), width_(width) {}

  size_t width() const { return width_; }

  void Reset(size_t expected_rows) {
    keys_.Reset(expected_rows);
    chains_.clear();
    rows_.clear();
    next_.clear();
  }

  /// Moves the values of build row `row` (of width() values) into the
  /// arena under `key` (which must have no nulls); `row` keeps its buffer.
  void Insert(uint64_t hash, const Value* key, Row* row) {
    assert(row->size() == width_);
    const auto id = static_cast<int32_t>(next_.size());
    rows_.insert(rows_.end(), std::make_move_iterator(row->begin()),
                 std::make_move_iterator(row->end()));
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
  /// The width() values of build row `id`.
  const Value* row(int32_t id) const { return rows_.data() + id * width_; }

 private:
  struct Chain {
    int32_t head;
    int32_t tail;
  };

  KeyTable keys_;
  size_t width_;
  std::vector<Chain> chains_;  // per key entry
  std::vector<Value> rows_;    // width_ values per row
  std::vector<int32_t> next_;  // per row
};

}  // namespace erbium

#endif  // ERBIUM_EXEC_HASH_TABLE_H_
