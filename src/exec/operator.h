#ifndef ERBIUM_EXEC_OPERATOR_H_
#define ERBIUM_EXEC_OPERATOR_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/expr.h"
#include "exec/hash_table.h"
#include "obs/trace.h"
#include "storage/table.h"

namespace erbium {

class Operator;
class ParallelContext;  // exec/parallel.h

using OperatorPtr = std::unique_ptr<Operator>;

/// Volcano-style pull operator. Usage: Open(), then Next() until it
/// returns false. Open() may be called again to re-execute. Runtime errors
/// cannot occur after successful construction (plans are bound/validated
/// by the translator), so Next is a plain bool.
class Operator {
 public:
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Names/types of the produced columns, for resolution and printing.
  const std::vector<Column>& output_columns() const { return output_; }

  /// Non-virtual execution entry points. The wrappers feed per-instance
  /// OpStats: opens and rows_out are always counted (one add per call);
  /// wall/CPU time is recorded only inside an EXPLAIN ANALYZE window
  /// (obs::AnalyzeEnabled()), and is inclusive of children since a Next
  /// typically pulls from its child inside the timed region. Subclasses
  /// implement OpenImpl/NextImpl.
  Status Open();
  bool Next(Row* out);

  /// Execution stats accumulated by Open/Next since construction. One
  /// instance is driven by one thread at a time, so reading this is only
  /// safe once execution (including pool workers) has finished.
  const obs::OpStats& stats() const { return stats_; }

  /// Extra EXPLAIN ANALYZE annotation for this node (parallel operators
  /// report morsel/batch distribution); empty by default.
  virtual std::string AnalyzeDetail() const { return std::string(); }

  /// One-line description of this node (no children).
  virtual std::string name() const = 0;
  virtual std::vector<const Operator*> children() const { return {}; }

  /// Morsel-parallel execution support (exec/parallel.h). Returns a fresh
  /// operator performing this node's work as one of several identical
  /// worker pipelines: table scans become ParallelScanOp sharing a morsel
  /// cursor registered in `ctx` (keyed by this node's address), hash joins
  /// become probe operators over a shared build. Returns nullptr when the
  /// node cannot run morsel-parallel (the default); `this` stays usable as
  /// the serial plan either way. The original plan must outlive the clones.
  virtual OperatorPtr CloneForWorker(ParallelContext* ctx) const;

  /// Estimated number of rows this operator will produce, or 0 if unknown.
  /// An upper bound is fine; used only for container reservations.
  virtual size_t EstimatedRowCount() const { return 0; }

 protected:
  Operator() = default;

  virtual Status OpenImpl() = 0;
  virtual bool NextImpl(Row* out) = 0;

  std::vector<Column> output_;
  obs::OpStats stats_;

 private:
  Status OpenTimed();
  bool NextTimed(Row* out);
};

inline Status Operator::Open() {
  ++stats_.opens;
  if (obs::AnalyzeEnabled()) return OpenTimed();
  return OpenImpl();
}

inline bool Operator::Next(Row* out) {
  if (obs::AnalyzeEnabled()) return NextTimed(out);
  bool ok = NextImpl(out);
  stats_.rows_out += static_cast<uint64_t>(ok);
  return ok;
}

/// Renders an indented plan tree.
std::string PrintPlan(const Operator& root);

/// Drains an operator into a vector of rows. Returns the status of Open().
Result<std::vector<Row>> CollectRows(Operator* op);

// ---- Leaf operators --------------------------------------------------------

/// Full scan over the live rows of a table, reading a version pinned at
/// Open() (the ambient exec::ReadSnapshot's pin, or its own).
class SeqScan : public Operator {
 public:
  explicit SeqScan(const Table* table);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override { return "SeqScan(" + table_->name() + ")"; }
  OperatorPtr CloneForWorker(ParallelContext* ctx) const override;
  size_t EstimatedRowCount() const override { return table_->size(); }

 private:
  const Table* table_;
  /// Resolved at Open(); owned by the statement's ReadSnapshot (raw) or
  /// by owned_pin_. Stale between executions, never dereferenced then.
  const TableVersion* version_ = nullptr;
  std::shared_ptr<const TableVersion> owned_pin_;
  RowId next_ = 0;
};

/// Point lookup of one key through the table's index on the given columns
/// (falls back to scan if no index exists), probing a version pinned at
/// Open() so it never blocks behind — or observes half of — a writer.
/// The key is evaluated at Open(), so a cached plan whose key reads
/// statement parameters probes the values bound for this run.
class IndexLookup : public Operator {
 public:
  IndexLookup(const Table* table, std::vector<int> column_indexes,
              std::vector<ExprPtr> key);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override {
    return "IndexLookup(" + table_->name() + ")";
  }

 private:
  const Table* table_;
  const TableVersion* version_ = nullptr;
  std::shared_ptr<const TableVersion> owned_pin_;
  std::vector<int> column_indexes_;
  std::vector<ExprPtr> key_exprs_;
  IndexKey key_;
  std::vector<RowId> matches_;
  size_t next_ = 0;
};

/// Emits a fixed list of rows (IN-lists of keys, tests, VALUES clauses).
class ValuesOp : public Operator {
 public:
  ValuesOp(std::vector<Column> columns, std::vector<Row> rows);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override {
    return "Values(" + std::to_string(rows_.size()) + " rows)";
  }
  size_t EstimatedRowCount() const override { return rows_.size(); }

 private:
  std::vector<Row> rows_;
  size_t next_ = 0;
};

// ---- Unary operators -------------------------------------------------------

class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override {
    return "Filter(" + predicate_->ToString() + ")";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  OperatorPtr CloneForWorker(ParallelContext* ctx) const override;
  // Upper bound: assumes the predicate keeps everything.
  size_t EstimatedRowCount() const override {
    return child_->EstimatedRowCount();
  }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<Column> output,
            std::vector<ExprPtr> exprs);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  OperatorPtr CloneForWorker(ParallelContext* ctx) const override;
  size_t EstimatedRowCount() const override {
    return child_->EstimatedRowCount();
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Row input_;
};

class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, size_t limit);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override {
    return "Limit(" + std::to_string(limit_) + ")";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  size_t EstimatedRowCount() const override {
    size_t child = child_->EstimatedRowCount();
    return child == 0 ? limit_ : std::min(child, limit_);
  }

 private:
  OperatorPtr child_;
  size_t limit_;
  size_t produced_ = 0;
};

/// Hash-based duplicate elimination over the full row.
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override { return "Distinct"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  size_t EstimatedRowCount() const override {
    return child_->EstimatedRowCount();
  }

 private:
  OperatorPtr child_;
  KeyTable seen_;
};

/// Expands an array column: one output row per element, with the array
/// column replaced by the element value. With `outer` set, rows whose
/// array is null/empty are emitted once with a null element (mirrors a
/// left join against a side table).
class UnnestOp : public Operator {
 public:
  UnnestOp(OperatorPtr child, int array_column, std::string element_name,
           bool outer = false);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  OperatorPtr CloneForWorker(ParallelContext* ctx) const override;

 private:
  OperatorPtr child_;
  int array_column_;
  bool outer_;
  Row current_;
  bool has_current_ = false;
  size_t element_index_ = 0;
};

// ---- N-ary operators -------------------------------------------------------

/// Bag union of children with identical arity; output columns come from
/// the first child. Children whose tables lack some columns must be
/// padded with null projections by the planner (M4 superclass scans).
class UnionAllOp : public Operator {
 public:
  explicit UnionAllOp(std::vector<OperatorPtr> children);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override { return "UnionAll"; }
  std::vector<const Operator*> children() const override;
  OperatorPtr CloneForWorker(ParallelContext* ctx) const override;
  size_t EstimatedRowCount() const override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

}  // namespace erbium

#endif  // ERBIUM_EXEC_OPERATOR_H_
