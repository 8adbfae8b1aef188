#ifndef ERBIUM_EXEC_JOIN_H_
#define ERBIUM_EXEC_JOIN_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/hash_table.h"
#include "exec/operator.h"

namespace erbium {

enum class JoinType { kInner, kLeftOuter };

/// Build side of a hash join: the build child's rows keyed by their join
/// key in flat JoinTables (exec/hash_table.h), filled once per execution.
/// A serial HashJoinOp owns one (one table, built through the child). The
/// worker clones of a parallelized join share one from their
/// ParallelContext; when its build child is itself clonable, build
/// workers partition rows by key hash in parallel and the partitions fill
/// independently, otherwise the serial child fills one table — possibly
/// as a pool task, concurrently with the plan's other serial builds
/// (ParallelContext::PrebuildJoins).
class JoinBuildState {
 public:
  /// `parent` is the plan's ParallelContext, or null for a serial join.
  JoinBuildState(ParallelContext* parent, Operator* build_plan,
                 std::vector<ExprPtr> build_keys);
  ~JoinBuildState();

  /// Builds unless already built this execution; serialized with a mutex
  /// (worker Opens and a prebuild task may both ask).
  Status EnsureBuilt();
  void Invalidate();

  /// Slot count of the build side's scans (threshold accounting).
  size_t ScanSlots() const;

  /// True for a serial build that submits nothing to the thread pool (no
  /// Gather or ParallelHashAggregate under it): it may run as a pool
  /// task, since a pool task must never wait on another pool task.
  bool CanBuildOnPool() const { return pool_safe_; }

  /// The table holding keys with this hash.
  const JoinTable& TableFor(uint64_t hash) const {
    return tables_[Partition(hash, tables_.size())];
  }

  const std::vector<ExprPtr>& build_keys() const { return build_keys_; }
  /// The worker clones used when the build itself runs parallel (empty
  /// for a serial build). EXPLAIN ANALYZE merges their stats onto the
  /// serial build child.
  const std::vector<OperatorPtr>& build_workers() const {
    return build_workers_;
  }

 private:
  /// Partition of `hash` among `count` (a power of two) tables: bits
  /// above the ones a table uses for its slot index.
  static size_t Partition(uint64_t hash, size_t count) {
    return (hash >> 32) & (count - 1);
  }

  Status BuildParallel();

  Operator* build_plan_;
  std::vector<ExprPtr> build_keys_;
  std::unique_ptr<ParallelContext> sub_ctx_;
  std::vector<OperatorPtr> build_workers_;  // empty => serial build
  std::vector<JoinTable> tables_;  // power-of-two count, by hash bits
  bool pool_safe_ = false;
  std::mutex mu_;
  bool built_ = false;
};

/// The probe loop of a hash join (inner or left-outer; null keys never
/// join), shared by HashJoinOp and its worker clones, HashJoinProbeOp.
class JoinProbe {
 public:
  JoinProbe(std::vector<ExprPtr> keys, JoinType join_type,
            size_t build_arity);

  void Reset() { match_ = -1; }
  /// Next joined row of `child`'s rows against `build`.
  bool Next(Operator* child, const JoinBuildState& build, Row* out);

  const std::vector<ExprPtr>& keys() const { return keys_; }
  JoinType join_type() const { return join_type_; }

 private:
  std::vector<ExprPtr> keys_;
  JoinType join_type_;
  size_t build_arity_;
  Row left_;
  Row key_;
  const JoinTable* table_ = nullptr;
  int32_t match_ = -1;
};

/// Hash join: builds on the right child, probes with the left. Left-outer
/// pads the right side with nulls when no match — used heavily for
/// normalized mappings (subclass delta tables, multi-valued side tables).
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
             JoinType join_type = JoinType::kInner);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }
  OperatorPtr CloneForWorker(ParallelContext* ctx) const override;
  size_t EstimatedRowCount() const override {
    return left_->EstimatedRowCount();
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  size_t right_arity_;
  JoinBuildState build_;
  JoinProbe probe_;
};

/// Probe side of a parallelized hash join; one per worker pipeline,
/// probing the build state shared by all of them.
class HashJoinProbeOp : public Operator {
 public:
  HashJoinProbeOp(OperatorPtr probe_child, std::vector<ExprPtr> probe_keys,
                  std::shared_ptr<JoinBuildState> state, JoinType join_type,
                  std::vector<Column> output, size_t build_arity,
                  std::string display_name);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override { return display_name_; }
  std::vector<const Operator*> children() const override {
    return {probe_child_.get()};
  }
  size_t EstimatedRowCount() const override {
    return probe_child_->EstimatedRowCount();
  }
  const Operator* probe_child() const { return probe_child_.get(); }
  const JoinBuildState* build_state() const { return state_.get(); }

 private:
  OperatorPtr probe_child_;
  std::shared_ptr<JoinBuildState> state_;
  JoinProbe probe_;
  std::string display_name_;
};

/// Nested-loop join with an arbitrary predicate over the concatenated row;
/// the fallback for non-equi joins. Materializes the right child.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate,
                   JoinType join_type = JoinType::kInner);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr predicate_;
  JoinType join_type_;

  std::vector<Row> right_rows_;
  bool right_materialized_ = false;
  Row current_left_;
  bool has_left_ = false;
  bool left_matched_ = false;
  size_t right_index_ = 0;
  size_t right_arity_ = 0;
};

/// Index nested-loop join: for each left row, evaluates key expressions
/// and probes a pinned version of the right *table* (index-backed when an
/// index on those columns exists). The physical analogue of a foreign-key
/// dereference.
class IndexJoinOp : public Operator {
 public:
  IndexJoinOp(OperatorPtr left, const Table* right,
              std::vector<ExprPtr> left_keys,
              std::vector<int> right_key_columns,
              JoinType join_type = JoinType::kInner);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {left_.get()};
  }
  OperatorPtr CloneForWorker(ParallelContext* ctx) const override;
  size_t EstimatedRowCount() const override {
    return left_->EstimatedRowCount();
  }

 private:
  OperatorPtr left_;
  const Table* right_;
  const TableVersion* right_version_ = nullptr;
  std::shared_ptr<const TableVersion> owned_pin_;
  std::vector<ExprPtr> left_keys_;
  std::vector<int> right_key_columns_;
  JoinType join_type_;

  Row current_left_;
  Row key_;
  std::vector<RowId> matches_;
  size_t match_index_ = 0;
  bool has_left_ = false;
  size_t right_arity_ = 0;
};

}  // namespace erbium

#endif  // ERBIUM_EXEC_JOIN_H_
