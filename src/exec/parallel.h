#ifndef ERBIUM_EXEC_PARALLEL_H_
#define ERBIUM_EXEC_PARALLEL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "exec/aggregate.h"
#include "exec/join.h"
#include "exec/operator.h"

namespace erbium {

// Morsel-driven parallel execution (Leis et al., SIGMOD'14) over the
// Volcano operators. A serial plan is cloned into N identical worker
// pipelines whose leaf scans share an atomic morsel cursor; a GatherOp (or
// ParallelHashAggregateOp) runs the workers on the shared ThreadPool and
// merges their output. Every scanned table's version is pinned for the
// workers' lifetime (ParallelContext::PinScanVersions), so workers read a
// frozen snapshot while writers publish new versions concurrently.

/// Knobs for one query execution. Defaults are serial (num_threads = 1),
/// which produces plans identical to the classic single-threaded engine.
struct ExecOptions {
  int num_threads = 1;
  /// Rows per morsel claimed by a worker from a scan cursor.
  size_t morsel_size = 2048;
  /// Minimum total base-table slots feeding a plan before the translator
  /// inserts parallel operators; smaller plans keep their serial shape.
  size_t parallel_row_threshold = 8192;

  static ExecOptions Serial() { return ExecOptions(); }
  /// num_threads from ERBIUM_THREADS (default: hardware concurrency) and
  /// parallel_row_threshold from ERBIUM_PARALLEL_THRESHOLD.
  static ExecOptions Default();
};

/// A table's scan range [0, slot_count) handed out in fixed-size chunks.
/// Claim() is wait-free; Reset() must not race with claims (the executor
/// resets all cursors before launching workers). slot_count() is the
/// latest *published* bound and may exceed the bound of the version the
/// scans pinned; ParallelScanOp clamps each claimed morsel to its pinned
/// version, so over-claimed tail slots are simply skipped.
struct MorselCursor {
  MorselCursor(const Table* table, size_t morsel_size)
      : table(table), end(table->slot_count()), morsel_size(morsel_size) {}

  bool Claim(size_t* lo, size_t* hi) {
    size_t begin = next.fetch_add(morsel_size, std::memory_order_relaxed);
    if (begin >= end) return false;
    *lo = begin;
    *hi = std::min(begin + morsel_size, end);
    return true;
  }

  void Reset() {
    end = table->slot_count();
    next.store(0, std::memory_order_relaxed);
  }

  const Table* table;
  std::atomic<size_t> next{0};
  size_t end;
  size_t morsel_size;
};

class JoinBuildState;
class RowExchange;

/// Shared state of one parallelized plan: the morsel cursors and join
/// build states keyed by the address of the serial node they were cloned
/// from, plus the set of tables the workers will read (whose versions the
/// context pins for the workers' lifetime). Built at plan time by
/// CloneForWorker, reset before each execution.
class ParallelContext {
 public:
  ParallelContext(ThreadPool* pool, const ExecOptions& opts);
  ~ParallelContext();

  /// Returns the shared cursor for a scan site, creating it on first use
  /// (the N worker clones of one SeqScan all land on the same site).
  std::shared_ptr<MorselCursor> CursorFor(const void* site,
                                          const Table* table);

  /// Returns the shared build state for a hash-join site, creating it on
  /// first use. `build_plan` is the serial build child (owned by the
  /// original plan), through which the build runs; it is never cloned.
  /// `build_keys` are its key expressions.
  std::shared_ptr<JoinBuildState> JoinStateFor(
      const void* site, Operator* build_plan,
      const std::vector<ExprPtr>& build_keys);

  /// Records a table the worker pipelines will read (index-join targets).
  void RegisterTable(const Table* table);

  /// Re-arms cursors (re-reading slot counts) and invalidates join builds.
  /// Called by the top operator's Open(); must not race with workers.
  void ResetForExecution();

  /// Builds every join whose build may run on the pool (no Gather or
  /// ParallelHashAggregate in its build plan: a pool task must never wait
  /// on another pool task), each as its own pool task with one on the
  /// calling thread, and waits for them: independent build sides fill
  /// concurrently rather than one after another in the worker Opens.
  /// Call after ResetForExecution, from a non-pool thread.
  Status PrebuildJoins();

  /// Sum of slot counts over all registered scan sites plus the estimated
  /// rows of every join build side — the translator's parallelism-threshold
  /// input.
  size_t TotalScanSlots() const;

  /// Pin/release the current version of every registered table. Pinned
  /// through the ambient exec::ReadSnapshot (same versions the worker
  /// pipelines resolved at Open), and held until every worker finished —
  /// detached Gather workers may outlive the statement's snapshot scope,
  /// and these pins keep their version pointers valid.
  void PinScanVersions();
  void ReleaseScanVersions();

  ThreadPool* pool() const { return pool_; }
  const ExecOptions& options() const { return opts_; }

 private:
  ThreadPool* pool_;
  ExecOptions opts_;
  struct JoinSite {
    const void* site;
    std::shared_ptr<JoinBuildState> state;
    bool pool_safe;  // may build as a pool task (see PrebuildJoins)
  };

  std::vector<std::pair<const void*, std::shared_ptr<MorselCursor>>> cursors_;
  std::vector<JoinSite> join_sites_;
  std::vector<const Table*> tables_;
  std::vector<std::shared_ptr<const TableVersion>> pinned_versions_;
  bool pins_held_ = false;
};

/// Scan leaf of a worker pipeline: emits live rows of the morsels it
/// claims from the shared cursor. The union of all workers' output is
/// exactly the serial SeqScan's output (in no particular order).
class ParallelScanOp : public Operator {
 public:
  ParallelScanOp(const Table* table, std::shared_ptr<MorselCursor> cursor);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override {
    return "ParallelScan(" + table_->name() + ")";
  }
  size_t EstimatedRowCount() const override { return table_->size(); }
  std::string AnalyzeDetail() const override {
    return "morsels=" + std::to_string(morsels_);
  }
  /// Morsels this worker claimed from the shared cursor (all executions).
  uint64_t morsels() const { return morsels_; }

 private:
  const Table* table_;
  std::shared_ptr<MorselCursor> cursor_;
  /// Pinned at Open() on the statement thread (never from a pool worker);
  /// the context's PinScanVersions holds the same version alive for the
  /// workers' — possibly detached — lifetime.
  const TableVersion* version_ = nullptr;
  std::shared_ptr<const TableVersion> owned_pin_;
  size_t pos_ = 0;
  size_t limit_ = 0;
  uint64_t morsels_ = 0;
};

/// Exchange at the top of a parallel pipeline segment: runs N worker
/// pipelines on the thread pool and merges their bounded output queues
/// into one row stream for the (serial) consumer above. Owns the serial
/// plan it was built from, which stays the source of truth for build
/// children and context keys.
class GatherOp : public Operator {
 public:
  GatherOp(OperatorPtr serial_plan, std::vector<OperatorPtr> workers,
           std::shared_ptr<ParallelContext> ctx);
  ~GatherOp() override;

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {workers_.front().get()};
  }
  size_t EstimatedRowCount() const override {
    return serial_plan_->EstimatedRowCount();
  }

  /// The serial plan this exchange was built from and the worker clones
  /// actually executed; EXPLAIN renders the serial tree with the workers'
  /// stats merged position-wise onto it.
  const Operator* serial_plan() const { return serial_plan_.get(); }
  const std::vector<OperatorPtr>& workers() const { return workers_; }

 private:
  void WorkerMain(size_t worker);
  void Shutdown();

  OperatorPtr serial_plan_;
  std::vector<OperatorPtr> workers_;
  std::shared_ptr<ParallelContext> ctx_;
  std::unique_ptr<RowExchange> exchange_;
  std::vector<std::future<void>> futures_;
  std::vector<Row> current_batch_;
  size_t batch_pos_ = 0;
};

/// Parallel aggregation: N worker pipelines each build a thread-local
/// group table (partial aggregation); Open() merges them via
/// AggAccumulator::Merge and Next() emits the merged groups. Output layout
/// matches HashAggregateOp exactly. kArrayAgg is excluded by the planner
/// (element order would depend on scheduling).
class ParallelHashAggregateOp : public Operator {
 public:
  ParallelHashAggregateOp(OperatorPtr serial_child,
                          std::vector<OperatorPtr> worker_children,
                          std::vector<ExprPtr> group_exprs,
                          std::vector<std::string> group_names,
                          std::vector<AggregateSpec> aggregates,
                          std::shared_ptr<ParallelContext> ctx);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {worker_children_.front().get()};
  }

  const Operator* serial_child() const { return serial_child_.get(); }
  const std::vector<OperatorPtr>& worker_children() const {
    return worker_children_;
  }

 private:
  OperatorPtr serial_child_;
  std::vector<OperatorPtr> worker_children_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggregateSpec> aggregates_;
  std::shared_ptr<ParallelContext> ctx_;
  AggGroupTable merged_;
  size_t next_group_ = 0;
};

// ---- Planner hooks ---------------------------------------------------------

/// True when `plan` is short: no GatherOp or ParallelHashAggregateOp (it
/// never waits on the pool), and the rows it reads — its leaves'
/// EstimatedRowCount()s, plus one per index-join probe and one per
/// nested-loop row pair — sum to less than `row_threshold`. The
/// estimates are read at the call, so the answer describes the tables as
/// they are then.
bool IsShortPlan(const Operator& plan, size_t row_threshold);

/// Wraps `plan` in a GatherOp running opts.num_threads worker pipelines
/// when the plan is parallel-clonable and its scan volume crosses
/// opts.parallel_row_threshold; otherwise returns `plan` unchanged (always
/// the case for num_threads <= 1).
OperatorPtr MaybeParallelGather(OperatorPtr plan, const ExecOptions& opts);

/// Builds the aggregation stage over `child`: parallel partial aggregation
/// with a merge when eligible under `opts`, else a serial HashAggregateOp.
OperatorPtr MakeAggregatePlan(OperatorPtr child,
                              std::vector<ExprPtr> group_exprs,
                              std::vector<std::string> group_names,
                              std::vector<AggregateSpec> aggregates,
                              const ExecOptions& opts);

}  // namespace erbium

#endif  // ERBIUM_EXEC_PARALLEL_H_
