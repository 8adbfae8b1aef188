#include "exec/operator.h"

#include "exec/parallel.h"
#include "exec/snapshot.h"

namespace erbium {

namespace {

void PrintPlanRec(const Operator& op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(op.name());
  out->push_back('\n');
  for (const Operator* child : op.children()) {
    PrintPlanRec(*child, depth + 1, out);
  }
}

}  // namespace

std::string PrintPlan(const Operator& root) {
  std::string out;
  PrintPlanRec(root, 0, &out);
  return out;
}

OperatorPtr Operator::CloneForWorker(ParallelContext* ctx) const {
  (void)ctx;
  return nullptr;
}

// Out-of-line analyze paths: the four clock reads per call are only paid
// inside an EXPLAIN ANALYZE window, keeping the inline wrappers small.

Status Operator::OpenTimed() {
  uint64_t wall = obs::MonotonicNowNs();
  uint64_t cpu = obs::ThreadCpuNowNs();
  Status st = OpenImpl();
  stats_.cpu_ns += obs::ThreadCpuNowNs() - cpu;
  stats_.wall_ns += obs::MonotonicNowNs() - wall;
  return st;
}

bool Operator::NextTimed(Row* out) {
  uint64_t wall = obs::MonotonicNowNs();
  uint64_t cpu = obs::ThreadCpuNowNs();
  bool ok = NextImpl(out);
  stats_.cpu_ns += obs::ThreadCpuNowNs() - cpu;
  stats_.wall_ns += obs::MonotonicNowNs() - wall;
  stats_.rows_out += static_cast<uint64_t>(ok);
  return ok;
}

Result<std::vector<Row>> CollectRows(Operator* op) {
  ERBIUM_RETURN_NOT_OK(op->Open());
  std::vector<Row> rows;
  // The estimate is an upper bound (filters may drop rows), so cap the
  // reservation to keep a selective scan from over-allocating.
  constexpr size_t kMaxReserve = 1 << 16;
  size_t hint = op->EstimatedRowCount();
  if (hint > 0) rows.reserve(std::min(hint, kMaxReserve));
  Row row;
  while (op->Next(&row)) rows.push_back(std::move(row));
  return rows;
}

// ---- SeqScan ----------------------------------------------------------------

SeqScan::SeqScan(const Table* table) : table_(table) {
  output_ = table->schema().columns();
}

Status SeqScan::OpenImpl() {
  version_ = exec::ResolveVersion(table_, &owned_pin_);
  next_ = 0;
  return Status::OK();
}

bool SeqScan::NextImpl(Row* out) {
  while (next_ < version_->slot_count()) {
    const Row* r = version_->row(next_++);
    if (r != nullptr) {
      *out = *r;
      return true;
    }
  }
  return false;
}

OperatorPtr SeqScan::CloneForWorker(ParallelContext* ctx) const {
  return std::make_unique<ParallelScanOp>(table_, ctx->CursorFor(this, table_));
}

// ---- IndexLookup ------------------------------------------------------------

IndexLookup::IndexLookup(const Table* table, std::vector<int> column_indexes,
                         std::vector<ExprPtr> key)
    : table_(table),
      column_indexes_(std::move(column_indexes)),
      key_exprs_(std::move(key)) {
  output_ = table->schema().columns();
}

Status IndexLookup::OpenImpl() {
  version_ = exec::ResolveVersion(table_, &owned_pin_);
  matches_.clear();
  next_ = 0;
  static const Row kNoRow;
  key_.clear();
  for (const ExprPtr& part : key_exprs_) key_.push_back(part->Eval(kNoRow));
  table_->LookupEqualIn(*version_, column_indexes_, key_, &matches_);
  return Status::OK();
}

bool IndexLookup::NextImpl(Row* out) {
  if (next_ >= matches_.size()) return false;
  *out = *version_->row(matches_[next_++]);
  return true;
}

// ---- ValuesOp ---------------------------------------------------------------

ValuesOp::ValuesOp(std::vector<Column> columns, std::vector<Row> rows)
    : rows_(std::move(rows)) {
  output_ = std::move(columns);
}

Status ValuesOp::OpenImpl() {
  next_ = 0;
  return Status::OK();
}

bool ValuesOp::NextImpl(Row* out) {
  if (next_ >= rows_.size()) return false;
  *out = rows_[next_++];
  return true;
}

// ---- FilterOp ---------------------------------------------------------------

FilterOp::FilterOp(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  output_ = child_->output_columns();
}

Status FilterOp::OpenImpl() { return child_->Open(); }

bool FilterOp::NextImpl(Row* out) {
  while (child_->Next(out)) {
    if (EvalPredicate(*predicate_, *out)) return true;
  }
  return false;
}

OperatorPtr FilterOp::CloneForWorker(ParallelContext* ctx) const {
  OperatorPtr child = child_->CloneForWorker(ctx);
  if (child == nullptr) return nullptr;
  return std::make_unique<FilterOp>(std::move(child), predicate_);
}

// ---- ProjectOp --------------------------------------------------------------

ProjectOp::ProjectOp(OperatorPtr child, std::vector<Column> output,
                     std::vector<ExprPtr> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  output_ = std::move(output);
}

Status ProjectOp::OpenImpl() { return child_->Open(); }

bool ProjectOp::NextImpl(Row* out) {
  if (!child_->Next(&input_)) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) out->push_back(e->Eval(input_));
  return true;
}

OperatorPtr ProjectOp::CloneForWorker(ParallelContext* ctx) const {
  OperatorPtr child = child_->CloneForWorker(ctx);
  if (child == nullptr) return nullptr;
  return std::make_unique<ProjectOp>(std::move(child), output_, exprs_);
}

std::string ProjectOp::name() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += output_[i].name;
  }
  out += ")";
  return out;
}

// ---- LimitOp ----------------------------------------------------------------

LimitOp::LimitOp(OperatorPtr child, size_t limit)
    : child_(std::move(child)), limit_(limit) {
  output_ = child_->output_columns();
}

Status LimitOp::OpenImpl() {
  produced_ = 0;
  return child_->Open();
}

bool LimitOp::NextImpl(Row* out) {
  if (produced_ >= limit_) return false;
  if (!child_->Next(out)) return false;
  ++produced_;
  return true;
}

// ---- DistinctOp -------------------------------------------------------------

DistinctOp::DistinctOp(OperatorPtr child)
    : child_(std::move(child)), seen_(child_->output_columns().size()) {
  output_ = child_->output_columns();
}

Status DistinctOp::OpenImpl() {
  seen_.Reset(child_->EstimatedRowCount());
  return child_->Open();
}

bool DistinctOp::NextImpl(Row* out) {
  while (child_->Next(out)) {
    if (seen_.FindOrInsert(HashKey(out->data(), out->size()), out->data())
            .second) {
      return true;
    }
  }
  return false;
}

// ---- UnnestOp ---------------------------------------------------------------

UnnestOp::UnnestOp(OperatorPtr child, int array_column,
                   std::string element_name, bool outer)
    : child_(std::move(child)), array_column_(array_column), outer_(outer) {
  output_ = child_->output_columns();
  Column& col = output_[array_column_];
  col.name = std::move(element_name);
  if (col.type && col.type->kind() == TypeKind::kArray) {
    col.type = col.type->element_type();
  }
  col.nullable = true;
}

Status UnnestOp::OpenImpl() {
  has_current_ = false;
  element_index_ = 0;
  return child_->Open();
}

bool UnnestOp::NextImpl(Row* out) {
  while (true) {
    if (!has_current_) {
      if (!child_->Next(&current_)) return false;
      has_current_ = true;
      element_index_ = 0;
      const Value& arr = current_[array_column_];
      bool empty = arr.kind() != TypeKind::kArray || arr.array().empty();
      if (empty) {
        has_current_ = false;
        if (outer_) {
          *out = std::move(current_);
          (*out)[array_column_] = Value::Null();
          return true;
        }
        continue;
      }
    }
    const Value& arr = current_[array_column_];
    const Value::ArrayData& elements = arr.array();
    if (element_index_ < elements.size()) {
      if (element_index_ + 1 == elements.size()) {
        // Last element: the buffered row is dead after this, so move it
        // out. Copy the element first — it lives inside the array value
        // being overwritten.
        Value element = elements[element_index_];
        *out = std::move(current_);
        (*out)[array_column_] = std::move(element);
        has_current_ = false;
        return true;
      }
      *out = current_;
      (*out)[array_column_] = elements[element_index_];
      ++element_index_;
      return true;
    }
    has_current_ = false;
  }
}

OperatorPtr UnnestOp::CloneForWorker(ParallelContext* ctx) const {
  OperatorPtr child = child_->CloneForWorker(ctx);
  if (child == nullptr) return nullptr;
  return std::make_unique<UnnestOp>(std::move(child), array_column_,
                                    output_[array_column_].name, outer_);
}

std::string UnnestOp::name() const {
  return std::string(outer_ ? "OuterUnnest(" : "Unnest(") +
         output_[array_column_].name + ")";
}

// ---- UnionAllOp -------------------------------------------------------------

UnionAllOp::UnionAllOp(std::vector<OperatorPtr> children)
    : children_(std::move(children)) {
  output_ = children_.front()->output_columns();
}

Status UnionAllOp::OpenImpl() {
  current_ = 0;
  for (const OperatorPtr& child : children_) {
    ERBIUM_RETURN_NOT_OK(child->Open());
  }
  return Status::OK();
}

bool UnionAllOp::NextImpl(Row* out) {
  while (current_ < children_.size()) {
    if (children_[current_]->Next(out)) return true;
    ++current_;
  }
  return false;
}

std::vector<const Operator*> UnionAllOp::children() const {
  std::vector<const Operator*> out;
  out.reserve(children_.size());
  for (const OperatorPtr& child : children_) out.push_back(child.get());
  return out;
}

OperatorPtr UnionAllOp::CloneForWorker(ParallelContext* ctx) const {
  // Each worker unions clones of every child; the children's shared scan
  // cursors split the rows across workers, preserving bag semantics.
  std::vector<OperatorPtr> clones;
  clones.reserve(children_.size());
  for (const OperatorPtr& child : children_) {
    OperatorPtr clone = child->CloneForWorker(ctx);
    if (clone == nullptr) return nullptr;
    clones.push_back(std::move(clone));
  }
  return std::make_unique<UnionAllOp>(std::move(clones));
}

size_t UnionAllOp::EstimatedRowCount() const {
  size_t total = 0;
  for (const OperatorPtr& child : children_) {
    total += child->EstimatedRowCount();
  }
  return total;
}

}  // namespace erbium
