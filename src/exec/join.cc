#include "exec/join.h"

#include <algorithm>

#include "exec/parallel.h"
#include "exec/snapshot.h"

namespace erbium {

namespace {

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

}  // namespace

// ---- JoinBuildState ---------------------------------------------------------

JoinBuildState::JoinBuildState(Operator* build_plan,
                               std::vector<ExprPtr> build_keys)
    : build_plan_(build_plan),
      build_keys_(std::move(build_keys)),
      table_(build_keys_.size()) {}

void JoinBuildState::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  built_ = false;
}

Status JoinBuildState::EnsureBuilt() {
  std::lock_guard<std::mutex> lock(mu_);
  if (built_) return Status::OK();
  table_.Reset(build_plan_->EstimatedRowCount());
  ERBIUM_RETURN_NOT_OK(build_plan_->Open());
  Row row;
  Row key;
  while (build_plan_->Next(&row)) {
    EvalKeys(build_keys_, row, &key);
    if (KeyHasNull(key.data(), key.size())) continue;  // null never joins
    table_.Insert(HashKey(key.data(), key.size()), key.data(), std::move(row));
  }
  built_ = true;
  return Status::OK();
}

// ---- JoinProbe --------------------------------------------------------------

JoinProbe::JoinProbe(std::vector<ExprPtr> keys, JoinType join_type,
                     size_t build_arity)
    : keys_(std::move(keys)),
      join_type_(join_type),
      build_arity_(build_arity) {}

bool JoinProbe::Next(Operator* child, const JoinTable& table, Row* out) {
  while (true) {
    if (match_ >= 0) {
      const Row& build_row = table.row(match_);
      match_ = table.next(match_);
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
      match_ = table.Find(HashKey(key_.data(), key_.size()), key_.data());
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
      build_(right_.get(), std::move(right_keys)),
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
  return probe_.Next(left_.get(), build_.table(), out);
}

OperatorPtr HashJoinOp::CloneForWorker(ParallelContext* ctx) const {
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
  return probe_.Next(probe_child_.get(), state_->table(), out);
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
      // combined_ = the left row, then a right-hand suffix that each pair
      // overwrites in place; a row is copied out only on a match.
      if (!left_->Next(&combined_)) return false;
      left_arity_ = combined_.size();
      combined_.resize(left_arity_ + right_arity_);
      has_left_ = true;
      left_matched_ = false;
      right_index_ = 0;
    }
    const auto suffix = combined_.begin() + static_cast<ptrdiff_t>(left_arity_);
    while (right_index_ < right_rows_.size()) {
      const Row& right_row = right_rows_[right_index_++];
      std::copy(right_row.begin(), right_row.end(), suffix);
      if (predicate_ == nullptr || EvalPredicate(*predicate_, combined_)) {
        left_matched_ = true;
        *out = combined_;
        return true;
      }
    }
    has_left_ = false;
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      std::fill(suffix, combined_.end(), Value::Null());
      *out = std::move(combined_);
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
