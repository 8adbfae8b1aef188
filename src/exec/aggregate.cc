#include "exec/aggregate.h"

#include "common/string_util.h"

namespace erbium {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kArrayAgg:
      return "array_agg";
  }
  return "?";
}

Result<AggKind> AggKindByName(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "count") return AggKind::kCount;
  if (lower == "sum") return AggKind::kSum;
  if (lower == "avg") return AggKind::kAvg;
  if (lower == "min") return AggKind::kMin;
  if (lower == "max") return AggKind::kMax;
  if (lower == "array_agg") return AggKind::kArrayAgg;
  return Status::AnalysisError("unknown aggregate function: " + name);
}

void AggAccumulator::Update(const AggregateSpec& spec, Value v) {
  if (spec.kind == AggKind::kCountStar) {
    ++count_;
    return;
  }
  if (v.is_null()) return;
  if (spec.distinct) {
    if (distinct_seen_ == nullptr) {
      distinct_seen_ =
          std::make_unique<std::unordered_set<Value, ValueHash>>();
    }
    if (!distinct_seen_->insert(v).second) return;
  }
  switch (spec.kind) {
    case AggKind::kCountStar:
      break;
    case AggKind::kCount:
      ++count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      ++count_;
      if (v.kind() == TypeKind::kInt64 && sum_is_int_) {
        int_sum_ += v.as_int64();
      } else {
        if (sum_is_int_) {
          sum_ = static_cast<double>(int_sum_);
          sum_is_int_ = false;
        }
        sum_ += v.AsFloat64();
      }
      break;
    case AggKind::kMin:
      if (min_.is_null() || v.Compare(min_) < 0) min_ = std::move(v);
      break;
    case AggKind::kMax:
      if (max_.is_null() || v.Compare(max_) > 0) max_ = std::move(v);
      break;
    case AggKind::kArrayAgg:
      collected_.push_back(std::move(v));
      break;
  }
}

void AggAccumulator::Merge(const AggregateSpec& spec, AggAccumulator&& other) {
  if (spec.distinct && spec.kind != AggKind::kCountStar) {
    // Replay the other side's distinct values; Update dedups against this
    // side's seen-set, so values observed by both partials count once.
    if (other.distinct_seen_ != nullptr) {
      for (const Value& v : *other.distinct_seen_) Update(spec, v);
    }
    return;
  }
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      count_ += other.count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      count_ += other.count_;
      if (sum_is_int_ && other.sum_is_int_) {
        int_sum_ += other.int_sum_;
      } else {
        if (sum_is_int_) {
          sum_ = static_cast<double>(int_sum_);
          sum_is_int_ = false;
        }
        sum_ += other.sum_is_int_ ? static_cast<double>(other.int_sum_)
                                  : other.sum_;
      }
      break;
    case AggKind::kMin:
      if (!other.min_.is_null() &&
          (min_.is_null() || other.min_.Compare(min_) < 0)) {
        min_ = std::move(other.min_);
      }
      break;
    case AggKind::kMax:
      if (!other.max_.is_null() &&
          (max_.is_null() || other.max_.Compare(max_) > 0)) {
        max_ = std::move(other.max_);
      }
      break;
    case AggKind::kArrayAgg:
      collected_.insert(collected_.end(),
                        std::make_move_iterator(other.collected_.begin()),
                        std::make_move_iterator(other.collected_.end()));
      break;
  }
}

Value AggAccumulator::Finalize(const AggregateSpec& spec) {
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int64(count_);
    case AggKind::kSum:
      if (count_ == 0) return Value::Null();
      return sum_is_int_ ? Value::Int64(int_sum_) : Value::Float64(sum_);
    case AggKind::kAvg: {
      if (count_ == 0) return Value::Null();
      double total =
          sum_is_int_ ? static_cast<double>(int_sum_) : sum_;
      return Value::Float64(total / static_cast<double>(count_));
    }
    case AggKind::kMin:
      return min_;
    case AggKind::kMax:
      return max_;
    case AggKind::kArrayAgg:
      return Value::Array(std::move(collected_));
  }
  return Value::Null();
}

void AggGroupTable::Reset(size_t expected_groups) {
  // A global aggregate has one group whatever its input size.
  keys_.Reset(keys_.arity() == 0 ? 1 : expected_groups);
  aggs_.clear();
}

AggAccumulator* AggGroupTable::GroupAggs(std::pair<uint32_t, bool> found) {
  if (found.second) aggs_.resize(aggs_.size() + num_aggs_);
  return aggs_.data() + found.first * num_aggs_;
}

void AggGroupTable::Accumulate(const std::vector<ExprPtr>& group_exprs,
                               const std::vector<AggregateSpec>& aggregates,
                               const Row& row) {
  EvalKeys(group_exprs, row, &key_);
  AggAccumulator* aggs = GroupAggs(
      keys_.FindOrInsert(HashKey(key_.data(), key_.size()), key_.data()));
  for (size_t i = 0; i < aggregates.size(); ++i) {
    const AggregateSpec& spec = aggregates[i];
    aggs[i].Update(spec, spec.input ? spec.input->Eval(row) : Value::Null());
  }
}

void AggGroupTable::Merge(const std::vector<AggregateSpec>& aggregates,
                          AggGroupTable&& other) {
  for (uint32_t g = 0; g < other.num_groups(); ++g) {
    AggAccumulator* aggs = GroupAggs(
        keys_.FindOrInsert(other.keys_.hash(g), other.keys_.key(g)));
    AggAccumulator* incoming = other.aggs_.data() + g * num_aggs_;
    for (size_t i = 0; i < aggregates.size(); ++i) {
      aggs[i].Merge(aggregates[i], std::move(incoming[i]));
    }
  }
  other.Reset(0);
}

void AggGroupTable::EnsureGlobalGroup() {
  if (keys_.arity() == 0 && num_groups() == 0) {
    GroupAggs(keys_.FindOrInsert(HashKey(nullptr, 0), nullptr));
  }
}

void AggGroupTable::EmitGroup(size_t i,
                              const std::vector<AggregateSpec>& aggregates,
                              Row* out) {
  Value* key = keys_.mutable_key(static_cast<uint32_t>(i));
  AggAccumulator* aggs = aggs_.data() + i * num_aggs_;
  out->clear();
  out->reserve(keys_.arity() + aggregates.size());
  for (size_t k = 0; k < keys_.arity(); ++k) out->push_back(std::move(key[k]));
  for (size_t a = 0; a < aggregates.size(); ++a) {
    out->push_back(aggs[a].Finalize(aggregates[a]));
  }
}

std::vector<Column> AggregateOutputColumns(
    const std::vector<std::string>& group_names,
    const std::vector<AggregateSpec>& aggregates) {
  std::vector<Column> out;
  out.reserve(group_names.size() + aggregates.size());
  for (const std::string& name : group_names) {
    out.push_back(Column{name, Type::Null(), true});
  }
  for (const AggregateSpec& spec : aggregates) {
    TypePtr type;
    switch (spec.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        type = Type::Int64();
        break;
      case AggKind::kAvg:
        type = Type::Float64();
        break;
      default:
        type = Type::Null();
        break;
    }
    out.push_back(Column{spec.output_name, type, true});
  }
  return out;
}

HashAggregateOp::HashAggregateOp(OperatorPtr child,
                                 std::vector<ExprPtr> group_exprs,
                                 std::vector<std::string> group_names,
                                 std::vector<AggregateSpec> aggregates)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)),
      groups_(group_exprs_.size(), aggregates_.size()) {
  output_ = AggregateOutputColumns(group_names, aggregates_);
}

Status HashAggregateOp::OpenImpl() {
  groups_.Reset(child_->EstimatedRowCount());
  next_group_ = 0;
  ERBIUM_RETURN_NOT_OK(child_->Open());
  Row row;
  while (child_->Next(&row)) {
    groups_.Accumulate(group_exprs_, aggregates_, row);
  }
  groups_.EnsureGlobalGroup();
  return Status::OK();
}

bool HashAggregateOp::NextImpl(Row* out) {
  if (next_group_ >= groups_.num_groups()) return false;
  groups_.EmitGroup(next_group_++, aggregates_, out);
  return true;
}

std::string HashAggregateOp::name() const {
  std::string out = "HashAggregate(groups=";
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

}  // namespace erbium
