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
/// key in one flat JoinTable (exec/hash_table.h), filled through the child
/// once per execution. A serial HashJoinOp owns one. The worker clones of
/// a parallelized join share one from their ParallelContext, which may
/// fill it as a pool task concurrently with the plan's other builds
/// (ParallelContext::PrebuildJoins).
class JoinBuildState {
 public:
  JoinBuildState(Operator* build_plan, std::vector<ExprPtr> build_keys);

  /// Builds unless already built this execution; serialized with a mutex
  /// (worker Opens and a prebuild task may both ask).
  Status EnsureBuilt();
  void Invalidate();

  const Operator& build_plan() const { return *build_plan_; }
  const std::vector<ExprPtr>& build_keys() const { return build_keys_; }
  const JoinTable& table() const { return table_; }

 private:
  Operator* build_plan_;
  std::vector<ExprPtr> build_keys_;
  JoinTable table_;
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
  /// Next joined row of `child`'s rows against `table`.
  bool Next(Operator* child, const JoinTable& table, Row* out);

  const std::vector<ExprPtr>& keys() const { return keys_; }
  JoinType join_type() const { return join_type_; }

 private:
  std::vector<ExprPtr> keys_;
  JoinType join_type_;
  size_t build_arity_;
  Row left_;
  Row key_;
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
  Row combined_;  // current left row + the right row under test
  size_t left_arity_ = 0;
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
