#include "exec/parallel.h"

#include "exec/exchange.h"
#include "exec/snapshot.h"

#include <cerrno>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <set>
#include <thread>

namespace erbium {

namespace {

// Rows per batch pushed through a GatherOp exchange, and the per-worker
// bound on queued batches (backpressure when the consumer is slower than
// the producers).
constexpr size_t kGatherBatchRows = 1024;
constexpr size_t kMaxQueuedBatchesPerWorker = 4;

/// Strictly parsed integer environment variable. Garbage ("abc", "4x",
/// out-of-range) falls back to `fallback` with a one-time stderr warning
/// per variable instead of silently becoming 0 the way atoi would.
int EnvInt(const char* name, int fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  long parsed = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || parsed < INT_MIN ||
      parsed > INT_MAX) {
    static std::mutex warn_mu;
    static std::set<std::string>* warned = new std::set<std::string>();
    std::lock_guard<std::mutex> lock(warn_mu);
    if (warned->insert(name).second) {
      std::fprintf(stderr,
                   "erbium: ignoring unparseable %s='%s' (using default %d)\n",
                   name, s, fallback);
    }
    return fallback;
  }
  return static_cast<int>(parsed);
}

/// True when `op`'s subtree submits work to the thread pool and waits
/// for it.
bool UsesPool(const Operator& op) {
  if (dynamic_cast<const GatherOp*>(&op) != nullptr ||
      dynamic_cast<const ParallelHashAggregateOp*>(&op) != nullptr) {
    return true;
  }
  for (const Operator* child : op.children()) {
    if (UsesPool(*child)) return true;
  }
  return false;
}

/// Estimated rows `op`'s subtree reads: each leaf's EstimatedRowCount(),
/// plus one probe per input row of an index join and one predicate test
/// per row pair of a nested-loop join — work that no leaf estimate shows.
size_t RowsRead(const Operator& op) {
  std::vector<const Operator*> children = op.children();
  if (children.empty()) return op.EstimatedRowCount();
  size_t rows = 0;
  if (dynamic_cast<const IndexJoinOp*>(&op) != nullptr) {
    rows = op.EstimatedRowCount();
  } else if (dynamic_cast<const NestedLoopJoinOp*>(&op) != nullptr) {
    rows = children[0]->EstimatedRowCount() * children[1]->EstimatedRowCount();
  }
  for (const Operator* child : children) rows += RowsRead(*child);
  return rows;
}

}  // namespace

ExecOptions ExecOptions::Default() {
  ExecOptions opts;
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  int threads = EnvInt("ERBIUM_THREADS", hw > 0 ? hw : 1);
  opts.num_threads = std::min(std::max(threads, 1), 64);
  int threshold = EnvInt("ERBIUM_PARALLEL_THRESHOLD",
                         static_cast<int>(opts.parallel_row_threshold));
  opts.parallel_row_threshold =
      threshold < 0 ? 0 : static_cast<size_t>(threshold);
  return opts;
}

// ---- ParallelContext --------------------------------------------------------

ParallelContext::ParallelContext(ThreadPool* pool, const ExecOptions& opts)
    : pool_(pool), opts_(opts) {
  // Grow the shared pool up-front so tests can run more workers than the
  // machine has cores.
  pool_->EnsureWorkers(opts_.num_threads);
}

ParallelContext::~ParallelContext() {
  if (pins_held_) ReleaseScanVersions();
}

std::shared_ptr<MorselCursor> ParallelContext::CursorFor(const void* site,
                                                         const Table* table) {
  for (const auto& [s, cursor] : cursors_) {
    if (s == site) return cursor;
  }
  auto cursor = std::make_shared<MorselCursor>(table, opts_.morsel_size);
  cursors_.emplace_back(site, cursor);
  RegisterTable(table);
  return cursor;
}

std::shared_ptr<JoinBuildState> ParallelContext::JoinStateFor(
    const void* site, Operator* build_plan,
    const std::vector<ExprPtr>& build_keys) {
  for (const JoinSite& js : join_sites_) {
    if (js.site == site) return js.state;
  }
  auto state = std::make_shared<JoinBuildState>(build_plan, build_keys);
  join_sites_.push_back({site, state, !UsesPool(*build_plan)});
  return state;
}

void ParallelContext::RegisterTable(const Table* table) {
  for (const Table* t : tables_) {
    if (t == table) return;
  }
  tables_.push_back(table);
}

void ParallelContext::ResetForExecution() {
  for (auto& [site, cursor] : cursors_) cursor->Reset();
  for (JoinSite& js : join_sites_) js.state->Invalidate();
}

Status ParallelContext::PrebuildJoins() {
  std::vector<JoinBuildState*> builds;
  for (JoinSite& js : join_sites_) {
    if (js.pool_safe) builds.push_back(js.state.get());
  }
  if (builds.size() < 2) return Status::OK();
  // The tasks resolve table versions through this statement's snapshot;
  // it outlives them because this thread waits for every task.
  exec::ReadSnapshot* snapshot = exec::ReadSnapshot::Current();
  std::vector<Status> statuses(builds.size());
  std::vector<std::future<void>> futures;
  futures.reserve(builds.size() - 1);
  for (size_t i = 1; i < builds.size(); ++i) {
    futures.push_back(pool_->Submit([&builds, &statuses, snapshot, i] {
      exec::ReadSnapshot::Adopt adopt(snapshot);
      statuses[i] = builds[i]->EnsureBuilt();
    }));
  }
  statuses[0] = builds[0]->EnsureBuilt();
  for (std::future<void>& f : futures) f.wait();
  for (Status& status : statuses) ERBIUM_RETURN_NOT_OK(status);
  return Status::OK();
}

size_t ParallelContext::TotalScanSlots() const {
  size_t total = 0;
  for (const auto& [site, cursor] : cursors_) {
    total += cursor->table->slot_count();
  }
  for (const JoinSite& js : join_sites_) {
    total += js.state->build_plan().EstimatedRowCount();
  }
  return total;
}

void ParallelContext::PinScanVersions() {
  if (pins_held_) return;
  // exec::SharedVersion resolves through the ambient ReadSnapshot when one
  // is installed, so these pins are the SAME versions the worker pipelines
  // resolve at Open — keeping their raw version pointers valid even if a
  // detached worker outlives the statement's snapshot scope. Pin/release
  // calls never overlap: Pin runs on the caller thread before workers
  // launch, and Release runs either on the last worker to finish or on the
  // caller after joining the futures.
  pinned_versions_.reserve(tables_.size());
  for (const Table* t : tables_) {
    pinned_versions_.push_back(exec::SharedVersion(t));
  }
  pins_held_ = true;
}

void ParallelContext::ReleaseScanVersions() {
  if (!pins_held_) return;
  pinned_versions_.clear();
  pins_held_ = false;
}

// ---- ParallelScanOp ---------------------------------------------------------

ParallelScanOp::ParallelScanOp(const Table* table,
                               std::shared_ptr<MorselCursor> cursor)
    : table_(table), cursor_(std::move(cursor)) {
  output_ = table_->schema().columns();
}

Status ParallelScanOp::OpenImpl() {
  // The shared cursor is reset once per execution by the context (the
  // enclosing Gather/aggregate), not per worker.
  version_ = exec::ResolveVersion(table_, &owned_pin_);
  pos_ = 0;
  limit_ = 0;
  return Status::OK();
}

bool ParallelScanOp::NextImpl(Row* out) {
  // The cursor's range comes from the latest published slot_count, which
  // may exceed this worker's pinned bound if a writer published between
  // the cursor Reset and our Open; clamp claimed morsels to the pin.
  const size_t bound = version_->slot_count();
  while (true) {
    if (limit_ > bound) limit_ = bound;
    while (pos_ < limit_) {
      const Row* r = version_->row(pos_++);
      if (r != nullptr) {
        *out = *r;
        return true;
      }
    }
    if (!cursor_->Claim(&pos_, &limit_)) return false;
    ++morsels_;
  }
}

// ---- GatherOp ---------------------------------------------------------------

GatherOp::GatherOp(OperatorPtr serial_plan, std::vector<OperatorPtr> workers,
                   std::shared_ptr<ParallelContext> ctx)
    : serial_plan_(std::move(serial_plan)),
      workers_(std::move(workers)),
      ctx_(std::move(ctx)) {
  output_ = serial_plan_->output_columns();
}

GatherOp::~GatherOp() { Shutdown(); }

void GatherOp::Shutdown() {
  if (exchange_ != nullptr) exchange_->Cancel();
  for (std::future<void>& f : futures_) {
    if (f.valid()) f.wait();
  }
  futures_.clear();
  exchange_.reset();
  // Pins were dropped by the last worker's MarkDone; this only covers the
  // Open-failure path where no workers launched.
  ctx_->ReleaseScanVersions();
}

Status GatherOp::OpenImpl() {
  Shutdown();
  ctx_->ResetForExecution();
  ctx_->PinScanVersions();
  // Worker Opens run serially on the caller thread; the first probe of
  // each parallelized hash join builds the shared table here, unless
  // PrebuildJoins already did.
  Status s = ctx_->PrebuildJoins();
  for (size_t i = 0; s.ok() && i < workers_.size(); ++i) {
    s = workers_[i]->Open();
  }
  if (!s.ok()) {
    ctx_->ReleaseScanVersions();
    return s;
  }
  ctx_->pool()->EnsureWorkers(static_cast<int>(workers_.size()));
  exchange_ = std::make_unique<RowExchange>(workers_.size(),
                                           kMaxQueuedBatchesPerWorker);
  futures_.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    futures_.push_back(ctx_->pool()->Submit([this, i] { WorkerMain(i); }));
  }
  current_batch_.clear();
  batch_pos_ = 0;
  return Status::OK();
}

void GatherOp::WorkerMain(size_t worker) {
  RowExchange* ex = exchange_.get();
  std::vector<Row> batch;
  batch.reserve(kGatherBatchRows);
  Row row;
  while (!ex->cancelled() && workers_[worker]->Next(&row)) {
    batch.push_back(std::move(row));
    if (batch.size() >= kGatherBatchRows) {
      if (!ex->Push(worker, std::move(batch))) break;
      batch = std::vector<Row>();
      batch.reserve(kGatherBatchRows);
    }
  }
  if (!batch.empty()) ex->Push(worker, std::move(batch));
  // The last producer out drops the version pins on the scanned tables.
  if (ex->MarkDone(worker)) ctx_->ReleaseScanVersions();
}

bool GatherOp::NextImpl(Row* out) {
  while (true) {
    if (batch_pos_ < current_batch_.size()) {
      *out = std::move(current_batch_[batch_pos_++]);
      return true;
    }
    current_batch_.clear();
    batch_pos_ = 0;
    if (exchange_ == nullptr || !exchange_->PopBatch(&current_batch_)) {
      return false;
    }
    ++stats_.batches;
  }
}

std::string GatherOp::name() const {
  return "Gather(threads=" + std::to_string(workers_.size()) +
         ", morsel=" + std::to_string(ctx_->options().morsel_size) + ")";
}

// ---- ParallelHashAggregateOp ------------------------------------------------

ParallelHashAggregateOp::ParallelHashAggregateOp(
    OperatorPtr serial_child, std::vector<OperatorPtr> worker_children,
    std::vector<ExprPtr> group_exprs, std::vector<std::string> group_names,
    std::vector<AggregateSpec> aggregates, std::shared_ptr<ParallelContext> ctx)
    : serial_child_(std::move(serial_child)),
      worker_children_(std::move(worker_children)),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)),
      ctx_(std::move(ctx)),
      merged_(group_exprs_.size(), aggregates_.size()) {
  output_ = AggregateOutputColumns(group_names, aggregates_);
}

Status ParallelHashAggregateOp::OpenImpl() {
  merged_.Reset(0);
  next_group_ = 0;
  ctx_->ResetForExecution();
  ctx_->PinScanVersions();
  Status status = ctx_->PrebuildJoins();
  for (size_t i = 0; status.ok() && i < worker_children_.size(); ++i) {
    status = worker_children_[i]->Open();
  }
  if (status.ok()) {
    ctx_->pool()->EnsureWorkers(static_cast<int>(worker_children_.size()));
    std::vector<AggGroupTable> partials;
    partials.reserve(worker_children_.size());
    for (size_t i = 0; i < worker_children_.size(); ++i) {
      partials.emplace_back(group_exprs_.size(), aggregates_.size());
    }
    std::vector<std::future<void>> futures;
    futures.reserve(worker_children_.size());
    for (size_t i = 0; i < worker_children_.size(); ++i) {
      futures.push_back(ctx_->pool()->Submit([this, i, &partials] {
        Row row;
        while (worker_children_[i]->Next(&row)) {
          partials[i].Accumulate(group_exprs_, aggregates_, row);
        }
      }));
    }
    for (std::future<void>& f : futures) f.wait();
    merged_ = std::move(partials.front());
    for (size_t i = 1; i < partials.size(); ++i) {
      merged_.Merge(aggregates_, std::move(partials[i]));
    }
  }
  ctx_->ReleaseScanVersions();
  ERBIUM_RETURN_NOT_OK(status);
  merged_.EnsureGlobalGroup();
  return Status::OK();
}

bool ParallelHashAggregateOp::NextImpl(Row* out) {
  if (next_group_ >= merged_.num_groups()) return false;
  merged_.EmitGroup(next_group_++, aggregates_, out);
  return true;
}

std::string ParallelHashAggregateOp::name() const {
  std::string out = "ParallelHashAggregate(threads=" +
                    std::to_string(worker_children_.size()) + "; groups=";
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_exprs_[i]->ToString();
  }
  out += "; aggs=";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggKindName(aggregates_[i].kind);
  }
  out += ")";
  return out;
}

// ---- Planner hooks ----------------------------------------------------------

namespace {

// Clones `plan` into num_threads worker pipelines sharing `ctx`. Returns
// an empty vector when the plan is not clonable or too small to benefit.
std::vector<OperatorPtr> CloneWorkers(const Operator& plan,
                                      ParallelContext* ctx,
                                      const ExecOptions& opts) {
  std::vector<OperatorPtr> workers;
  workers.reserve(static_cast<size_t>(opts.num_threads));
  for (int i = 0; i < opts.num_threads; ++i) {
    OperatorPtr worker = plan.CloneForWorker(ctx);
    if (worker == nullptr) return {};
    workers.push_back(std::move(worker));
  }
  if (ctx->TotalScanSlots() < opts.parallel_row_threshold) return {};
  return workers;
}

}  // namespace

bool IsShortPlan(const Operator& plan, size_t row_threshold) {
  return !UsesPool(plan) && RowsRead(plan) < row_threshold;
}

OperatorPtr MaybeParallelGather(OperatorPtr plan, const ExecOptions& opts) {
  if (opts.num_threads <= 1 || plan == nullptr) return plan;
  auto ctx = std::make_shared<ParallelContext>(ThreadPool::Shared(), opts);
  std::vector<OperatorPtr> workers = CloneWorkers(*plan, ctx.get(), opts);
  if (workers.empty()) return plan;
  return std::make_unique<GatherOp>(std::move(plan), std::move(workers),
                                    std::move(ctx));
}

OperatorPtr MakeAggregatePlan(OperatorPtr child,
                              std::vector<ExprPtr> group_exprs,
                              std::vector<std::string> group_names,
                              std::vector<AggregateSpec> aggregates,
                              const ExecOptions& opts) {
  bool eligible = opts.num_threads > 1;
  for (const AggregateSpec& spec : aggregates) {
    // array_agg element order would depend on worker scheduling.
    if (spec.kind == AggKind::kArrayAgg) eligible = false;
  }
  if (eligible) {
    auto ctx = std::make_shared<ParallelContext>(ThreadPool::Shared(), opts);
    std::vector<OperatorPtr> workers = CloneWorkers(*child, ctx.get(), opts);
    if (!workers.empty()) {
      return std::make_unique<ParallelHashAggregateOp>(
          std::move(child), std::move(workers), std::move(group_exprs),
          std::move(group_names), std::move(aggregates), std::move(ctx));
    }
  }
  return std::make_unique<HashAggregateOp>(std::move(child),
                                           std::move(group_exprs),
                                           std::move(group_names),
                                           std::move(aggregates));
}

}  // namespace erbium
