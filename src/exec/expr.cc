#include "exec/expr.h"

#include <cmath>
#include <unordered_set>

#include "common/key_table.h"
#include "common/string_util.h"

namespace erbium {

namespace {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool IsComparable(const Value& a, const Value& b) {
  if (a.kind() == b.kind()) return true;
  return (a.kind() == TypeKind::kInt64 || a.kind() == TypeKind::kFloat64) &&
         (b.kind() == TypeKind::kInt64 || b.kind() == TypeKind::kFloat64);
}

}  // namespace

Value CompareExpr::Eval(const Row& row) const {
  Value left = left_->Eval(row);
  if (left.is_null()) return Value::Null();
  Value right = right_->Eval(row);
  if (right.is_null()) return Value::Null();
  if (!IsComparable(left, right)) return Value::Null();
  int c = left.Compare(right);
  switch (op_) {
    case CompareOp::kEq:
      return Value::Bool(c == 0);
    case CompareOp::kNe:
      return Value::Bool(c != 0);
    case CompareOp::kLt:
      return Value::Bool(c < 0);
    case CompareOp::kLe:
      return Value::Bool(c <= 0);
    case CompareOp::kGt:
      return Value::Bool(c > 0);
    case CompareOp::kGe:
      return Value::Bool(c >= 0);
  }
  return Value::Null();
}

std::string CompareExpr::ToString() const {
  return "(" + left_->ToString() + " " + CompareOpName(op_) + " " +
         right_->ToString() + ")";
}

Value LogicalExpr::Eval(const Row& row) const {
  if (op_ == LogicalOp::kNot) {
    Value v = left_->Eval(row);
    if (v.is_null()) return Value::Null();
    if (v.kind() != TypeKind::kBool) return Value::Null();
    return Value::Bool(!v.as_bool());
  }
  Value left = left_->Eval(row);
  bool left_null = left.is_null() || left.kind() != TypeKind::kBool;
  if (op_ == LogicalOp::kAnd) {
    // Short-circuit: false AND x == false.
    if (!left_null && !left.as_bool()) return Value::Bool(false);
    Value right = right_->Eval(row);
    bool right_null = right.is_null() || right.kind() != TypeKind::kBool;
    if (!right_null && !right.as_bool()) return Value::Bool(false);
    if (left_null || right_null) return Value::Null();
    return Value::Bool(true);
  }
  // OR: true OR x == true.
  if (!left_null && left.as_bool()) return Value::Bool(true);
  Value right = right_->Eval(row);
  bool right_null = right.is_null() || right.kind() != TypeKind::kBool;
  if (!right_null && right.as_bool()) return Value::Bool(true);
  if (left_null || right_null) return Value::Null();
  return Value::Bool(false);
}

std::string LogicalExpr::ToString() const {
  switch (op_) {
    case LogicalOp::kNot:
      return "NOT " + left_->ToString();
    case LogicalOp::kAnd:
      return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
    case LogicalOp::kOr:
      return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
  }
  return "?";
}

Value ArithmeticExpr::Eval(const Row& row) const {
  Value left = left_->Eval(row);
  if (left.is_null()) return Value::Null();
  Value right = right_->Eval(row);
  if (right.is_null()) return Value::Null();
  // String concatenation via +.
  if (op_ == ArithmeticOp::kAdd && left.kind() == TypeKind::kString &&
      right.kind() == TypeKind::kString) {
    std::string joined(left.as_string());
    joined.append(right.as_string());
    return Value::String(joined);
  }
  bool left_num = left.kind() == TypeKind::kInt64 ||
                  left.kind() == TypeKind::kFloat64;
  bool right_num = right.kind() == TypeKind::kInt64 ||
                   right.kind() == TypeKind::kFloat64;
  if (!left_num || !right_num) return Value::Null();
  bool both_int = left.kind() == TypeKind::kInt64 &&
                  right.kind() == TypeKind::kInt64;
  if (both_int) {
    int64_t a = left.as_int64();
    int64_t b = right.as_int64();
    switch (op_) {
      case ArithmeticOp::kAdd:
        return Value::Int64(a + b);
      case ArithmeticOp::kSub:
        return Value::Int64(a - b);
      case ArithmeticOp::kMul:
        return Value::Int64(a * b);
      case ArithmeticOp::kDiv:
        if (b == 0) return Value::Null();
        return Value::Int64(a / b);
      case ArithmeticOp::kMod:
        if (b == 0) return Value::Null();
        return Value::Int64(a % b);
    }
    return Value::Null();
  }
  double a = left.AsFloat64();
  double b = right.AsFloat64();
  switch (op_) {
    case ArithmeticOp::kAdd:
      return Value::Float64(a + b);
    case ArithmeticOp::kSub:
      return Value::Float64(a - b);
    case ArithmeticOp::kMul:
      return Value::Float64(a * b);
    case ArithmeticOp::kDiv:
      if (b == 0) return Value::Null();
      return Value::Float64(a / b);
    case ArithmeticOp::kMod:
      if (b == 0) return Value::Null();
      return Value::Float64(std::fmod(a, b));
  }
  return Value::Null();
}

std::string ArithmeticExpr::ToString() const {
  const char* name = "?";
  switch (op_) {
    case ArithmeticOp::kAdd:
      name = "+";
      break;
    case ArithmeticOp::kSub:
      name = "-";
      break;
    case ArithmeticOp::kMul:
      name = "*";
      break;
    case ArithmeticOp::kDiv:
      name = "/";
      break;
    case ArithmeticOp::kMod:
      name = "%";
      break;
  }
  return "(" + left_->ToString() + " " + name + " " + right_->ToString() + ")";
}

struct InListExpr::Set {
  std::unordered_set<Value, ValueHash> values;
};

InListExpr::InListExpr(ExprPtr input, std::vector<Value> values)
    : input_(std::move(input)), values_(std::move(values)) {
  auto set = std::make_shared<Set>();
  for (const Value& v : values_) set->values.insert(v);
  set_ = std::move(set);
}

Value InListExpr::Eval(const Row& row) const {
  Value v = input_->Eval(row);
  if (v.is_null()) return Value::Null();
  return Value::Bool(set_->values.count(v) > 0);
}

std::string InListExpr::ToString() const {
  std::string out = input_->ToString() + " IN (";
  for (size_t i = 0; i < values_.size() && i < 5; ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  if (values_.size() > 5) out += ", ...";
  out += ")";
  return out;
}

Value FieldAccessExpr::Eval(const Row& row) const {
  Value v = input_->Eval(row);
  const Value* field = v.FindField(field_);
  return field == nullptr ? Value::Null() : *field;
}

Value MakeStructExpr::Eval(const Row& row) const {
  Value::StructData fields;
  fields.reserve(inputs_.size());
  for (size_t i = 0; i < inputs_.size(); ++i) {
    fields.emplace_back(names_[i], inputs_[i]->Eval(row));
  }
  return Value::Struct(std::move(fields));
}

std::string MakeStructExpr::ToString() const {
  std::string out = "struct(";
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += names_[i] + ": " + inputs_[i]->ToString();
  }
  out += ")";
  return out;
}

Result<BuiltinFn> FunctionExpr::FunctionByName(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "cardinality" || lower == "array_length") {
    return BuiltinFn::kCardinality;
  }
  if (lower == "array_contains") return BuiltinFn::kArrayContains;
  if (lower == "array_intersect") return BuiltinFn::kArrayIntersect;
  if (lower == "array_position") return BuiltinFn::kArrayPosition;
  if (lower == "lower") return BuiltinFn::kLower;
  if (lower == "upper") return BuiltinFn::kUpper;
  if (lower == "length") return BuiltinFn::kLength;
  if (lower == "abs") return BuiltinFn::kAbs;
  if (lower == "coalesce") return BuiltinFn::kCoalesce;
  return Status::AnalysisError("unknown function: " + name);
}

const char* FunctionExpr::FunctionName(BuiltinFn fn) {
  switch (fn) {
    case BuiltinFn::kCardinality:
      return "cardinality";
    case BuiltinFn::kArrayContains:
      return "array_contains";
    case BuiltinFn::kArrayIntersect:
      return "array_intersect";
    case BuiltinFn::kArrayPosition:
      return "array_position";
    case BuiltinFn::kLower:
      return "lower";
    case BuiltinFn::kUpper:
      return "upper";
    case BuiltinFn::kLength:
      return "length";
    case BuiltinFn::kAbs:
      return "abs";
    case BuiltinFn::kCoalesce:
      return "coalesce";
  }
  return "?";
}

Value FunctionExpr::Eval(const Row& row) const {
  switch (fn_) {
    case BuiltinFn::kCardinality: {
      Value v = args_[0]->Eval(row);
      if (v.kind() != TypeKind::kArray) return Value::Null();
      return Value::Int64(static_cast<int64_t>(v.array().size()));
    }
    case BuiltinFn::kArrayContains: {
      Value arr = args_[0]->Eval(row);
      Value needle = args_[1]->Eval(row);
      if (arr.kind() != TypeKind::kArray || needle.is_null()) {
        return Value::Null();
      }
      for (const Value& element : arr.array()) {
        if (element == needle) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    case BuiltinFn::kArrayIntersect: {
      Value a = args_[0]->Eval(row);
      Value b = args_[1]->Eval(row);
      if (a.kind() != TypeKind::kArray || b.kind() != TypeKind::kArray) {
        return Value::Null();
      }
      // Per-thread scratch: the right array's distinct elements, and
      // which of them were emitted. Reset keeps the table's capacity.
      thread_local KeyTable right_set(1);
      thread_local std::vector<bool> emitted;
      right_set.Reset(b.array().size());
      for (const Value& element : b.array()) {
        right_set.FindOrInsert(HashKey(&element, 1), &element);
      }
      emitted.assign(right_set.size(), false);
      Value::ArrayData out;
      for (const Value& element : a.array()) {
        uint32_t id = right_set.Find(HashKey(&element, 1), &element);
        if (id != KeyTable::kNotFound && !emitted[id]) {
          emitted[id] = true;
          out.push_back(element);
        }
      }
      return Value::Array(std::move(out));
    }
    case BuiltinFn::kArrayPosition: {
      Value arr = args_[0]->Eval(row);
      Value needle = args_[1]->Eval(row);
      if (arr.kind() != TypeKind::kArray || needle.is_null()) {
        return Value::Null();
      }
      Value::ArrayView elements = arr.array();
      for (size_t i = 0; i < elements.size(); ++i) {
        if (elements[i] == needle) {
          return Value::Int64(static_cast<int64_t>(i + 1));
        }
      }
      return Value::Null();
    }
    case BuiltinFn::kLower: {
      Value v = args_[0]->Eval(row);
      if (v.kind() != TypeKind::kString) return Value::Null();
      return Value::String(ToLower(v.as_string()));
    }
    case BuiltinFn::kUpper: {
      Value v = args_[0]->Eval(row);
      if (v.kind() != TypeKind::kString) return Value::Null();
      std::string s(v.as_string());
      for (char& c : s) c = std::toupper(static_cast<unsigned char>(c));
      return Value::String(s);
    }
    case BuiltinFn::kLength: {
      Value v = args_[0]->Eval(row);
      if (v.kind() != TypeKind::kString) return Value::Null();
      return Value::Int64(static_cast<int64_t>(v.as_string().size()));
    }
    case BuiltinFn::kAbs: {
      Value v = args_[0]->Eval(row);
      if (v.kind() == TypeKind::kInt64) {
        return Value::Int64(std::abs(v.as_int64()));
      }
      if (v.kind() == TypeKind::kFloat64) {
        return Value::Float64(std::fabs(v.as_float64()));
      }
      return Value::Null();
    }
    case BuiltinFn::kCoalesce: {
      for (const ExprPtr& arg : args_) {
        Value v = arg->Eval(row);
        if (!v.is_null()) return v;
      }
      return Value::Null();
    }
  }
  return Value::Null();
}

std::string FunctionExpr::ToString() const {
  std::string out = FunctionName(fn_);
  out += "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ")";
  return out;
}

ExprPtr MakeColumnRef(int index, std::string name) {
  return std::make_shared<ColumnRefExpr>(index, std::move(name));
}

ExprPtr MakeLiteral(Value value) {
  return std::make_shared<LiteralExpr>(std::move(value));
}

ExprPtr MakeCompare(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<CompareExpr>(op, std::move(left), std::move(right));
}

ExprPtr MakeAnd(ExprPtr left, ExprPtr right) {
  return std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(left),
                                       std::move(right));
}

ExprPtr MakeOr(ExprPtr left, ExprPtr right) {
  return std::make_shared<LogicalExpr>(LogicalOp::kOr, std::move(left),
                                       std::move(right));
}

ExprPtr MakeNot(ExprPtr input) {
  return std::make_shared<LogicalExpr>(LogicalOp::kNot, std::move(input),
                                       nullptr);
}

ExprPtr MakeArithmetic(ArithmeticOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ArithmeticExpr>(op, std::move(left),
                                          std::move(right));
}

ExprPtr MakeFunction(BuiltinFn fn, std::vector<ExprPtr> args) {
  return std::make_shared<FunctionExpr>(fn, std::move(args));
}

ExprPtr MakeInList(ExprPtr input, std::vector<Value> values) {
  return std::make_shared<InListExpr>(std::move(input), std::move(values));
}

ExprPtr ConjoinAll(std::vector<ExprPtr> predicates) {
  ExprPtr result;
  for (ExprPtr& p : predicates) {
    if (!p) continue;
    result = result ? MakeAnd(std::move(result), std::move(p)) : std::move(p);
  }
  return result;
}

}  // namespace erbium
