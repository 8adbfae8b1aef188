#include "exec/join.h"

#include "exec/parallel.h"
#include "exec/snapshot.h"

namespace erbium {

namespace {

// Partition count of a parallel build (a power of two, see Partition).
constexpr size_t kJoinBuildPartitions = 64;

/// Appends src to dst.
void AppendRow(const Row& src, Row* dst) {
  dst->insert(dst->end(), src.begin(), src.end());
}

void AppendNulls(size_t n, Row* dst) {
  for (size_t i = 0; i < n; ++i) dst->push_back(Value::Null());
}

std::vector<Column> ConcatColumns(const std::vector<Column>& a,
                                  const std::vector<Column>& b) {
  std::vector<Column> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
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

}  // namespace

// ---- JoinBuildState ---------------------------------------------------------

JoinBuildState::JoinBuildState(ParallelContext* parent, Operator* build_plan,
                               std::vector<ExprPtr> build_keys)
    : build_plan_(build_plan), build_keys_(std::move(build_keys)) {
  if (parent != nullptr) {
    // Try to parallelize the build itself. Build pipelines run on pool
    // threads, so they must not contain nested probe operators (a pool
    // task waiting on another pool task can deadlock); the sub-context's
    // parent link disables join-probe cloning.
    sub_ctx_ = std::make_unique<ParallelContext>(parent->pool(),
                                                parent->options(), parent);
    for (int i = 0; i < parent->options().num_threads; ++i) {
      OperatorPtr worker = build_plan_->CloneForWorker(sub_ctx_.get());
      if (worker == nullptr) {
        build_workers_.clear();
        break;
      }
      build_workers_.push_back(std::move(worker));
    }
    pool_safe_ = build_workers_.empty() && !UsesPool(*build_plan_);
  }
  size_t partitions = build_workers_.empty() ? 1 : kJoinBuildPartitions;
  tables_.reserve(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    tables_.emplace_back(build_keys_.size());
  }
}

JoinBuildState::~JoinBuildState() = default;

size_t JoinBuildState::ScanSlots() const {
  return sub_ctx_ == nullptr ? 0 : sub_ctx_->TotalScanSlots();
}

void JoinBuildState::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  built_ = false;
}

Status JoinBuildState::EnsureBuilt() {
  std::lock_guard<std::mutex> lock(mu_);
  if (built_) return Status::OK();
  if (!build_workers_.empty()) {
    ERBIUM_RETURN_NOT_OK(BuildParallel());
    built_ = true;
    return Status::OK();
  }
  JoinTable& table = tables_.front();
  table.Reset(build_plan_->EstimatedRowCount());
  ERBIUM_RETURN_NOT_OK(build_plan_->Open());
  Row row;
  Row key;
  while (build_plan_->Next(&row)) {
    EvalKeys(build_keys_, row, &key);
    if (KeyHasNull(key.data(), key.size())) continue;  // null never joins
    table.Insert(HashKey(key.data(), key.size()), key.data(), std::move(row));
  }
  built_ = true;
  return Status::OK();
}

Status JoinBuildState::BuildParallel() {
  sub_ctx_->ResetForExecution();
  for (const OperatorPtr& w : build_workers_) {
    ERBIUM_RETURN_NOT_OK(w->Open());
  }
  const size_t num_workers = build_workers_.size();
  const size_t num_tables = tables_.size();
  // Phase 1: each build worker partitions its share of the rows by key
  // hash into thread-local buckets, keeping each row's hash.
  using HashedRow = std::pair<uint64_t, Row>;
  std::vector<std::vector<std::vector<HashedRow>>> scratch(
      num_workers, std::vector<std::vector<HashedRow>>(num_tables));
  std::vector<std::future<void>> futures;
  futures.reserve(num_workers);
  for (size_t b = 0; b < num_workers; ++b) {
    futures.push_back(sub_ctx_->pool()->Submit([this, b, &scratch] {
      std::vector<std::vector<HashedRow>>& local = scratch[b];
      Row row;
      Row key;
      while (build_workers_[b]->Next(&row)) {
        EvalKeys(build_keys_, row, &key);
        if (KeyHasNull(key.data(), key.size())) continue;
        uint64_t hash = HashKey(key.data(), key.size());
        local[Partition(hash, local.size())].emplace_back(hash,
                                                          std::move(row));
      }
    }));
  }
  for (std::future<void>& f : futures) f.wait();
  futures.clear();

  // Phase 2: each task fills a strided subset of the tables; a table
  // reads only its own buckets, so tables fill independently.
  for (size_t w = 0; w < num_workers; ++w) {
    futures.push_back(sub_ctx_->pool()->Submit([this, w, num_workers,
                                                &scratch] {
      Row key;
      for (size_t p = w; p < tables_.size(); p += num_workers) {
        size_t total = 0;
        for (const auto& local : scratch) total += local[p].size();
        tables_[p].Reset(total);
        for (auto& local : scratch) {
          for (HashedRow& hr : local[p]) {
            EvalKeys(build_keys_, hr.second, &key);
            tables_[p].Insert(hr.first, key.data(), std::move(hr.second));
          }
        }
      }
    }));
  }
  for (std::future<void>& f : futures) f.wait();
  return Status::OK();
}

// ---- JoinProbe --------------------------------------------------------------

JoinProbe::JoinProbe(std::vector<ExprPtr> keys, JoinType join_type,
                     size_t build_arity)
    : keys_(std::move(keys)),
      join_type_(join_type),
      build_arity_(build_arity) {}

bool JoinProbe::Next(Operator* child, const JoinBuildState& build, Row* out) {
  while (true) {
    if (match_ >= 0) {
      const Row& build_row = table_->row(match_);
      match_ = table_->next(match_);
      // The last match takes the buffered left row; `out`'s old buffer
      // becomes the next left row's.
      if (match_ < 0) {
        out->swap(left_);
      } else {
        *out = left_;
      }
      AppendRow(build_row, out);
      return true;
    }
    if (!child->Next(&left_)) return false;
    EvalKeys(keys_, left_, &key_);
    if (!KeyHasNull(key_.data(), key_.size())) {
      uint64_t hash = HashKey(key_.data(), key_.size());
      table_ = &build.TableFor(hash);
      match_ = table_->Find(hash, key_.data());
    }
    if (match_ < 0 && join_type_ == JoinType::kLeftOuter) {
      out->swap(left_);
      AppendNulls(build_arity_, out);
      return true;
    }
  }
}

// ---- HashJoinOp -------------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys, JoinType join_type)
    : left_(std::move(left)),
      right_(std::move(right)),
      right_arity_(right_->output_columns().size()),
      build_(nullptr, right_.get(), std::move(right_keys)),
      probe_(std::move(left_keys), join_type, right_arity_) {
  output_ = ConcatColumns(left_->output_columns(), right_->output_columns());
  if (join_type == JoinType::kLeftOuter) {
    for (size_t i = left_->output_columns().size(); i < output_.size(); ++i) {
      output_[i].nullable = true;
    }
  }
}

Status HashJoinOp::OpenImpl() {
  build_.Invalidate();
  ERBIUM_RETURN_NOT_OK(build_.EnsureBuilt());
  probe_.Reset();
  return left_->Open();
}

bool HashJoinOp::NextImpl(Row* out) {
  return probe_.Next(left_.get(), build_, out);
}

OperatorPtr HashJoinOp::CloneForWorker(ParallelContext* ctx) const {
  // Inside a join-build pipeline a probe would make a pool task wait on
  // another pool task; decline and let that join run serially.
  if (!ctx->allow_join_probe()) return nullptr;
  OperatorPtr probe = left_->CloneForWorker(ctx);
  if (probe == nullptr) return nullptr;
  std::shared_ptr<JoinBuildState> state =
      ctx->JoinStateFor(this, right_.get(), build_.build_keys());
  return std::make_unique<HashJoinProbeOp>(
      std::move(probe), probe_.keys(), std::move(state), probe_.join_type(),
      output_, right_arity_, "Parallel" + name());
}

std::string HashJoinOp::name() const {
  std::string out = probe_.join_type() == JoinType::kLeftOuter
                        ? "HashLeftJoin("
                        : "HashJoin(";
  const std::vector<ExprPtr>& left_keys = probe_.keys();
  const std::vector<ExprPtr>& right_keys = build_.build_keys();
  for (size_t i = 0; i < left_keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += left_keys[i]->ToString() + " = " + right_keys[i]->ToString();
  }
  out += ")";
  return out;
}

// ---- HashJoinProbeOp --------------------------------------------------------

HashJoinProbeOp::HashJoinProbeOp(OperatorPtr probe_child,
                                 std::vector<ExprPtr> probe_keys,
                                 std::shared_ptr<JoinBuildState> state,
                                 JoinType join_type,
                                 std::vector<Column> output,
                                 size_t build_arity, std::string display_name)
    : probe_child_(std::move(probe_child)),
      state_(std::move(state)),
      probe_(std::move(probe_keys), join_type, build_arity),
      display_name_(std::move(display_name)) {
  output_ = std::move(output);
}

Status HashJoinProbeOp::OpenImpl() {
  ERBIUM_RETURN_NOT_OK(state_->EnsureBuilt());
  probe_.Reset();
  return probe_child_->Open();
}

bool HashJoinProbeOp::NextImpl(Row* out) {
  return probe_.Next(probe_child_.get(), *state_, out);
}

// ---- NestedLoopJoinOp --------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr predicate, JoinType join_type)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      join_type_(join_type) {
  right_arity_ = right_->output_columns().size();
  output_ = ConcatColumns(left_->output_columns(), right_->output_columns());
}

Status NestedLoopJoinOp::OpenImpl() {
  if (!right_materialized_) {
    ERBIUM_RETURN_NOT_OK(right_->Open());
    Row row;
    while (right_->Next(&row)) right_rows_.push_back(std::move(row));
    right_materialized_ = true;
  }
  has_left_ = false;
  return left_->Open();
}

bool NestedLoopJoinOp::NextImpl(Row* out) {
  while (true) {
    if (!has_left_) {
      if (!left_->Next(&current_left_)) return false;
      has_left_ = true;
      left_matched_ = false;
      right_index_ = 0;
    }
    while (right_index_ < right_rows_.size()) {
      const Row& right_row = right_rows_[right_index_++];
      Row combined = current_left_;
      AppendRow(right_row, &combined);
      if (predicate_ == nullptr || EvalPredicate(*predicate_, combined)) {
        left_matched_ = true;
        *out = std::move(combined);
        return true;
      }
    }
    has_left_ = false;
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      *out = current_left_;
      AppendNulls(right_arity_, out);
      return true;
    }
  }
}

std::string NestedLoopJoinOp::name() const {
  std::string out = join_type_ == JoinType::kLeftOuter ? "NestedLoopLeftJoin"
                                                       : "NestedLoopJoin";
  if (predicate_ != nullptr) out += "(" + predicate_->ToString() + ")";
  return out;
}

// ---- IndexJoinOp -------------------------------------------------------------

IndexJoinOp::IndexJoinOp(OperatorPtr left, const Table* right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<int> right_key_columns, JoinType join_type)
    : left_(std::move(left)),
      right_(right),
      left_keys_(std::move(left_keys)),
      right_key_columns_(std::move(right_key_columns)),
      join_type_(join_type) {
  right_arity_ = right->schema().num_columns();
  output_ =
      ConcatColumns(left_->output_columns(), right->schema().columns());
}

Status IndexJoinOp::OpenImpl() {
  right_version_ = exec::ResolveVersion(right_, &owned_pin_);
  has_left_ = false;
  matches_.clear();
  match_index_ = 0;
  return left_->Open();
}

bool IndexJoinOp::NextImpl(Row* out) {
  while (true) {
    if (has_left_ && match_index_ < matches_.size()) {
      *out = current_left_;
      AppendRow(*right_version_->row(matches_[match_index_++]), out);
      return true;
    }
    has_left_ = false;
    if (!left_->Next(&current_left_)) return false;
    matches_.clear();
    match_index_ = 0;
    EvalKeys(left_keys_, current_left_, &key_);
    if (!KeyHasNull(key_.data(), key_.size())) {
      right_->LookupEqualIn(*right_version_, right_key_columns_, key_,
                            &matches_);
    }
    if (matches_.empty()) {
      if (join_type_ == JoinType::kLeftOuter) {
        *out = current_left_;
        AppendNulls(right_arity_, out);
        return true;
      }
      continue;
    }
    has_left_ = true;
  }
}

OperatorPtr IndexJoinOp::CloneForWorker(ParallelContext* ctx) const {
  OperatorPtr left = left_->CloneForWorker(ctx);
  if (left == nullptr) return nullptr;
  // Probing the right table is read-only; workers share it directly.
  ctx->RegisterTable(right_);
  return std::make_unique<IndexJoinOp>(std::move(left), right_, left_keys_,
                                       right_key_columns_, join_type_);
}

std::string IndexJoinOp::name() const {
  std::string out =
      join_type_ == JoinType::kLeftOuter ? "IndexLeftJoin(" : "IndexJoin(";
  out += right_->name();
  out += ")";
  return out;
}

}  // namespace erbium
