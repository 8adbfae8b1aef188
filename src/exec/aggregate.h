#ifndef ERBIUM_EXEC_AGGREGATE_H_
#define ERBIUM_EXEC_AGGREGATE_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/hash_table.h"
#include "exec/operator.h"

namespace erbium {

enum class AggKind {
  kCountStar,
  kCount,     // non-null inputs
  kSum,
  kAvg,
  kMin,
  kMax,
  kArrayAgg,  // collects inputs (nulls skipped) into an array
};

const char* AggKindName(AggKind kind);
Result<AggKind> AggKindByName(const std::string& name);

/// One aggregate computation: kind + input expression (null for COUNT(*))
/// + output column name. `distinct` applies to kCount/kSum/kArrayAgg.
struct AggregateSpec {
  AggKind kind;
  ExprPtr input;  // nullptr only for kCountStar
  std::string output_name;
  bool distinct = false;
};

/// Running state of one aggregate. Shared between HashAggregateOp, the
/// factorized push-down aggregate, and parallel partial aggregation.
class AggAccumulator {
 public:
  /// Feeds one input value (pass any value for kCountStar).
  void Update(const AggregateSpec& spec, Value v);
  /// Folds another accumulator of the same spec into this one; `other` is
  /// consumed. Combining partial aggregates is exact for every kind except
  /// float sums, whose rounding depends on merge order (as in any parallel
  /// sum). kArrayAgg concatenates in merge order.
  void Merge(const AggregateSpec& spec, AggAccumulator&& other);
  /// Produces the result; the accumulator is consumed (array_agg moves).
  Value Finalize(const AggregateSpec& spec);

 private:
  int64_t count_ = 0;
  double sum_ = 0;
  bool sum_is_int_ = true;
  int64_t int_sum_ = 0;
  Value min_;
  Value max_;
  Value::ArrayData collected_;
  std::unique_ptr<std::unordered_set<Value, ValueHash>> distinct_seen_;
};

/// Groups in first-seen order, shared between the serial HashAggregateOp
/// and parallel partial aggregation (each worker fills its own table; the
/// tables are then merged). Group keys live in a KeyTable whose entry id
/// is the group index; the groups' accumulators are stored group-major,
/// one per aggregate.
class AggGroupTable {
 public:
  AggGroupTable(size_t num_keys, size_t num_aggs)
      : keys_(num_keys), num_aggs_(num_aggs) {}

  /// Drops every group; `expected_groups` sizes the first allocation.
  void Reset(size_t expected_groups);

  /// Accumulates one input row into its group (creating it if new).
  void Accumulate(const std::vector<ExprPtr>& group_exprs,
                  const std::vector<AggregateSpec>& aggregates,
                  const Row& row);

  /// Folds `other` into this table, reusing its stored key hashes;
  /// `other` is consumed.
  void Merge(const std::vector<AggregateSpec>& aggregates,
             AggGroupTable&& other);

  /// A global aggregate (no group keys) over empty input still emits one
  /// row: adds that group when the table is empty.
  void EnsureGlobalGroup();

  size_t num_groups() const { return keys_.size(); }

  /// Emits group `i` as an output row (group keys then aggregate results);
  /// the group's keys and state are consumed.
  void EmitGroup(size_t i, const std::vector<AggregateSpec>& aggregates,
                 Row* out);

 private:
  /// Adds accumulators for the group `FindOrInsert` just reported.
  AggAccumulator* GroupAggs(std::pair<uint32_t, bool> found);

  KeyTable keys_;
  size_t num_aggs_;
  std::vector<AggAccumulator> aggs_;
  Row key_;  // scratch for Accumulate
};

/// Output column layout shared by the serial and parallel aggregate
/// operators: group keys (named by `group_names`) then one column per
/// aggregate.
std::vector<Column> AggregateOutputColumns(
    const std::vector<std::string>& group_names,
    const std::vector<AggregateSpec>& aggregates);

/// Hash aggregation: groups by the given key expressions and computes the
/// aggregate specs per group. Output columns: group keys (named by
/// `group_names`) followed by one column per aggregate. With no group
/// keys, emits exactly one row (global aggregate), even over empty input.
/// kArrayAgg is also how nested outputs are assembled (paper Section 2:
/// "a chain of array_agg and group by's", here as a single operator).
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, std::vector<ExprPtr> group_exprs,
                  std::vector<std::string> group_names,
                  std::vector<AggregateSpec> aggregates);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggregateSpec> aggregates_;
  AggGroupTable groups_;
  size_t next_group_ = 0;
};

}  // namespace erbium

#endif  // ERBIUM_EXEC_AGGREGATE_H_
