#ifndef ERBIUM_EXEC_EXPR_H_
#define ERBIUM_EXEC_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/type.h"
#include "common/value.h"

namespace erbium {

/// Scalar expression evaluated against one input row. Expressions are
/// bound (column references resolved to positions) before execution, so
/// Eval is non-failing: SQL-style semantics apply, with type mismatches
/// and operations on null producing null.
class Expr {
 public:
  virtual ~Expr() = default;
  virtual Value Eval(const Row& row) const = 0;
  virtual std::string ToString() const = 0;
};

using ExprPtr = std::shared_ptr<const Expr>;

/// Reference to a column position in the input row, annotated with a
/// display name for plan printing.
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(int index, std::string name)
      : index_(index), name_(std::move(name)) {}

  Value Eval(const Row& row) const override { return row[index_]; }
  std::string ToString() const override { return name_; }
  int index() const { return index_; }

 private:
  int index_;
  std::string name_;
};

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}

  Value Eval(const Row&) const override { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// A statement parameter: slot `slot` of a parameter block shared with
/// the compiled plan, which the query engine rebinds before each run of
/// a cached plan. Prints the bound value, like a literal.
class ParamExpr : public Expr {
 public:
  ParamExpr(std::shared_ptr<const std::vector<Value>> params, size_t slot)
      : params_(std::move(params)), slot_(slot) {}

  Value Eval(const Row&) const override { return (*params_)[slot_]; }
  std::string ToString() const override {
    return (*params_)[slot_].ToString();
  }

 private:
  std::shared_ptr<const std::vector<Value>> params_;
  size_t slot_;
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Three-valued comparison: null operand -> null result.
class CompareExpr : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Value Eval(const Row& row) const override;
  std::string ToString() const override;

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

enum class LogicalOp { kAnd, kOr, kNot };

/// SQL three-valued logic.
class LogicalExpr : public Expr {
 public:
  /// For kNot, pass the operand as `left` and nullptr as `right`.
  LogicalExpr(LogicalOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Value Eval(const Row& row) const override;
  std::string ToString() const override;

 private:
  LogicalOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

enum class ArithmeticOp { kAdd, kSub, kMul, kDiv, kMod };

/// Numeric arithmetic; int64 op int64 stays int64 (except division by zero
/// -> null), any float operand promotes to float64, null propagates.
class ArithmeticExpr : public Expr {
 public:
  ArithmeticExpr(ArithmeticOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Value Eval(const Row& row) const override;
  std::string ToString() const override;

 private:
  ArithmeticOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// IS NULL / IS NOT NULL (two-valued).
class IsNullExpr : public Expr {
 public:
  IsNullExpr(ExprPtr input, bool negated)
      : input_(std::move(input)), negated_(negated) {}

  Value Eval(const Row& row) const override {
    bool is_null = input_->Eval(row).is_null();
    return Value::Bool(negated_ ? !is_null : is_null);
  }
  std::string ToString() const override {
    return input_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
  }

 private:
  ExprPtr input_;
  bool negated_;
};

/// value IN (list of constant values); null input -> null.
class InListExpr : public Expr {
 public:
  InListExpr(ExprPtr input, std::vector<Value> values);

  Value Eval(const Row& row) const override;
  std::string ToString() const override;

 private:
  ExprPtr input_;
  std::vector<Value> values_;  // kept for printing
  struct Set;
  std::shared_ptr<const Set> set_;
};

/// Access of a named field of a struct value; null/missing -> null.
class FieldAccessExpr : public Expr {
 public:
  FieldAccessExpr(ExprPtr input, std::string field)
      : input_(std::move(input)), field_(std::move(field)) {}

  Value Eval(const Row& row) const override;
  std::string ToString() const override {
    return input_->ToString() + "." + field_;
  }

 private:
  ExprPtr input_;
  std::string field_;
};

/// Builds a struct value from named sub-expressions (nested outputs).
class MakeStructExpr : public Expr {
 public:
  MakeStructExpr(std::vector<std::string> names, std::vector<ExprPtr> inputs)
      : names_(std::move(names)), inputs_(std::move(inputs)) {}

  Value Eval(const Row& row) const override;
  std::string ToString() const override;

 private:
  std::vector<std::string> names_;
  std::vector<ExprPtr> inputs_;
};

/// Built-in scalar functions over arrays and scalars.
enum class BuiltinFn {
  kCardinality,     // cardinality(array) -> int64
  kArrayContains,   // array_contains(array, v) -> bool
  kArrayIntersect,  // array_intersect(a, b) -> array
  kArrayPosition,   // array_position(array, v) -> 1-based index or null
  kLower,           // lower(string)
  kUpper,           // upper(string)
  kLength,          // length(string) -> int64
  kAbs,             // abs(numeric)
  kCoalesce,        // first non-null argument
};

class FunctionExpr : public Expr {
 public:
  FunctionExpr(BuiltinFn fn, std::vector<ExprPtr> args)
      : fn_(fn), args_(std::move(args)) {}

  Value Eval(const Row& row) const override;
  std::string ToString() const override;

  /// Maps a lower-case function name to its enum; error if unknown.
  static Result<BuiltinFn> FunctionByName(const std::string& name);
  static const char* FunctionName(BuiltinFn fn);

 private:
  BuiltinFn fn_;
  std::vector<ExprPtr> args_;
};

// ---- Convenience factories -------------------------------------------------

ExprPtr MakeColumnRef(int index, std::string name);
ExprPtr MakeLiteral(Value value);
ExprPtr MakeCompare(CompareOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeAnd(ExprPtr left, ExprPtr right);
ExprPtr MakeOr(ExprPtr left, ExprPtr right);
ExprPtr MakeNot(ExprPtr input);
ExprPtr MakeArithmetic(ArithmeticOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeFunction(BuiltinFn fn, std::vector<ExprPtr> args);
ExprPtr MakeInList(ExprPtr input, std::vector<Value> values);

/// Conjunction of a list of predicates (nullptr when empty).
ExprPtr ConjoinAll(std::vector<ExprPtr> predicates);

/// Evaluates a predicate for filtering: true only if Eval yields
/// boolean true (null and false both reject).
inline bool EvalPredicate(const Expr& expr, const Row& row) {
  Value v = expr.Eval(row);
  return v.kind() == TypeKind::kBool && v.as_bool();
}

}  // namespace erbium

#endif  // ERBIUM_EXEC_EXPR_H_
