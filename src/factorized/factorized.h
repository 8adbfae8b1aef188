#ifndef ERBIUM_FACTORIZED_FACTORIZED_H_
#define ERBIUM_FACTORIZED_FACTORIZED_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/aggregate.h"
#include "exec/operator.h"
#include "storage/index.h"
#include "storage/schema.h"
#include "storage/versioned_bank.h"

namespace erbium {

/// Immutable snapshot of a FactorizedPair: both sides' row banks, both
/// adjacency banks, and the edge count, all frozen at one publication
/// point. Same contract as TableVersion: safe to read from any thread
/// with no locking for as long as the shared_ptr is held.
struct PairVersion {
  CowBank<Row>::Snapshot left;
  CowBank<Row>::Snapshot right;
  CowBank<std::vector<uint32_t>>::Snapshot l2r;
  CowBank<std::vector<uint32_t>>::Snapshot r2l;
  size_t edge_count = 0;

  size_t left_slots() const { return left.bound; }
  size_t right_slots() const { return right.bound; }
  /// Row on the given side, or nullptr when the slot is dead.
  const Row* left_row(size_t i) const { return left.Get(i); }
  const Row* right_row(size_t i) const { return right.Get(i); }
  /// Adjacency of a slot; dead slots keep an (empty) list, so the
  /// pointer is non-null for every slot below the bound.
  const std::vector<uint32_t>* right_neighbors(size_t left_index) const {
    return l2r.Get(left_index);
  }
  const std::vector<uint32_t>* left_neighbors(size_t right_index) const {
    return r2l.Get(right_index);
  }
};

/// Multi-relational compressed (factorized) representation of the join of
/// two relations (paper Section 4, third physical target family): each
/// side's rows are stored exactly once and connected by physical pointers
/// (adjacency lists), so
///   - the join can be enumerated by pointer chasing, with no hash table
///     built at query time;
///   - either side can be scanned without duplication (unlike a
///     materialized join view); and
///   - aggregates over one side grouped by the other can be pushed down
///     through the join without materializing it.
/// This also mirrors graph-database adjacency storage, which is the
/// unification argument the paper makes for this representation.
///
/// Concurrency contract mirrors Table: one writer at a time (the owning
/// entity/relationship set's lock domain serializes mutators), any number
/// of readers through PinVersion(). The key→slot indexes are writer-only
/// state — reader operators never touch them.
class FactorizedPair {
 public:
  using VersionType = PairVersion;
  /// `left`/`right` describe the stored row shapes. `left_key` / `right_key`
  /// are column positions of the (logical) keys used to connect rows.
  FactorizedPair(std::string name, std::vector<Column> left_columns,
                 std::vector<int> left_key, std::vector<Column> right_columns,
                 std::vector<int> right_key);

  const std::string& name() const { return name_; }
  const std::vector<Column>& left_columns() const { return left_columns_; }
  const std::vector<Column>& right_columns() const { return right_columns_; }
  size_t left_size() const { return left_bank_.size(); }
  size_t right_size() const { return right_bank_.size(); }
  size_t edge_count() const { return edge_count_; }

  /// The last published version. Readers pin once per statement (via
  /// exec::ReadSnapshot) and read it lock-free.
  std::shared_ptr<const PairVersion> PinVersion() const {
    std::lock_guard<std::mutex> lock(version_mu_);
    return current_;
  }

  /// Writer-context working-state accessors (callers hold the pair's
  /// lock domain). left_row/right_row on a dead slot returns an empty row.
  const Row& left_row(size_t i) const;
  const Row& right_row(size_t i) const;
  bool left_live(size_t i) const { return left_bank_.Get(i) != nullptr; }
  bool right_live(size_t i) const { return right_bank_.Get(i) != nullptr; }
  const std::vector<uint32_t>& right_neighbors(size_t left_index) const {
    return *l2r_bank_.Get(left_index);
  }
  const std::vector<uint32_t>& left_neighbors(size_t right_index) const {
    return *r2l_bank_.Get(right_index);
  }

  /// Inserts a row on one side; duplicate and null-bearing keys are
  /// rejected (sides hold entities, which are keyed). Returns the
  /// side-local index.
  Result<uint32_t> InsertLeft(Row row);
  Result<uint32_t> InsertRight(Row row);

  /// Connects existing rows by key (the relationship instance).
  Status Connect(const IndexKey& left_key, const IndexKey& right_key);
  Status Disconnect(const IndexKey& left_key, const IndexKey& right_key);

  /// Removes a row and all its incident edges.
  Status EraseLeft(const IndexKey& key);
  Status EraseRight(const IndexKey& key);

  /// Side-local index by key; -1 when absent.
  int64_t FindLeft(const IndexKey& key) const;
  int64_t FindRight(const IndexKey& key) const;

  /// Update attributes of an existing row (key columns must be unchanged).
  Status UpdateLeft(const IndexKey& key, Row row);
  Status UpdateRight(const IndexKey& key, Row row);

  /// Approximate bytes (rows + adjacency), for storage comparisons
  /// against materialized join views.
  size_t ApproximateDataBytes() const;

 private:
  /// Side-local index of `key` in one side's key index; -1 when absent.
  static int64_t Find(const KeyIndex& index, const IndexKey& key);

  /// Swaps in a fresh PairVersion reflecting the working state. Called at
  /// the end of every successful mutation, before the mutator returns.
  void Publish();

  /// Appends `value` to the adjacency list in `bank` slot `i` (COW).
  static void AddEdge(CowBank<std::vector<uint32_t>>* bank, size_t i,
                      uint32_t value);
  /// Removes one occurrence of `value` from the list in slot `i` (COW).
  static void RemoveEdge(CowBank<std::vector<uint32_t>>* bank, size_t i,
                         uint32_t value);

  std::string name_;
  std::vector<Column> left_columns_;
  std::vector<Column> right_columns_;
  std::vector<int> left_key_;
  std::vector<int> right_key_;

  /// Row banks: null slot = erased. Adjacency banks: one (possibly empty)
  /// list per slot, never null below the bound.
  CowBank<Row> left_bank_;
  CowBank<Row> right_bank_;
  CowBank<std::vector<uint32_t>> l2r_bank_;
  CowBank<std::vector<uint32_t>> r2l_bank_;
  size_t edge_count_ = 0;

  mutable std::mutex version_mu_;
  std::shared_ptr<const PairVersion> current_;

  /// Key → side-local index (one posting per live key).
  KeyIndex left_index_;
  KeyIndex right_index_;
};

/// Operator that enumerates the stored join by pointer chasing: output is
/// left columns ++ right columns. Inner semantics (unmatched rows are
/// skipped); `left_outer` pads instead.
class FactorizedJoinScan : public Operator {
 public:
  explicit FactorizedJoinScan(const FactorizedPair* pair,
                              bool left_outer = false);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override {
    return "FactorizedJoinScan(" + pair_->name() + ")";
  }
  size_t EstimatedRowCount() const override {
    std::shared_ptr<const PairVersion> v = pair_->PinVersion();
    return v->edge_count + (left_outer_ ? v->left_slots() : 0);
  }

 private:
  const FactorizedPair* pair_;
  const PairVersion* version_ = nullptr;
  std::shared_ptr<const PairVersion> owned_pin_;
  bool left_outer_;
  size_t left_index_ = 0;
  size_t edge_index_ = 0;
};

/// Scans one side of the factorized pair without duplication.
class FactorizedSideScan : public Operator {
 public:
  FactorizedSideScan(const FactorizedPair* pair, bool left_side);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override {
    return std::string("FactorizedSideScan(") + pair_->name() +
           (left_side_ ? ", left)" : ", right)");
  }
  size_t EstimatedRowCount() const override {
    std::shared_ptr<const PairVersion> v = pair_->PinVersion();
    return left_side_ ? v->left_slots() : v->right_slots();
  }

 private:
  const FactorizedPair* pair_;
  const PairVersion* version_ = nullptr;
  std::shared_ptr<const PairVersion> owned_pin_;
  bool left_side_;
  size_t index_ = 0;
};

/// Pushed-down aggregate: for every left row, aggregates an expression
/// over its adjacent right rows (group-by-left without materializing the
/// join). Output: left columns ++ one column per aggregate. The aggregate
/// input expressions are evaluated against the *right* row only.
class FactorizedGroupAggregate : public Operator {
 public:
  FactorizedGroupAggregate(const FactorizedPair* pair,
                           std::vector<AggregateSpec> aggregates);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override {
    return "FactorizedGroupAggregate(" + pair_->name() + ")";
  }
  size_t EstimatedRowCount() const override {
    return pair_->PinVersion()->left_slots();
  }

 private:
  const FactorizedPair* pair_;
  const PairVersion* version_ = nullptr;
  std::shared_ptr<const PairVersion> owned_pin_;
  std::vector<AggregateSpec> aggregates_;
  size_t left_index_ = 0;
};

}  // namespace erbium

#endif  // ERBIUM_FACTORIZED_FACTORIZED_H_
