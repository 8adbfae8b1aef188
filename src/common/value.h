#ifndef ERBIUM_COMMON_VALUE_H_
#define ERBIUM_COMMON_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/type.h"

namespace erbium {

/// A runtime datum: null, bool, int64, float64, string, array of values,
/// or struct of named values. Arrays and structs are held behind shared
/// pointers so copying a Value is cheap regardless of nesting depth —
/// rows flow by value through the volcano executor.
class Value {
 public:
  using ArrayData = std::vector<Value>;
  using StructData = std::vector<std::pair<std::string, Value>>;

  /// Default-constructed Value is null.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Data(v)); }
  static Value Int64(int64_t v) { return Value(Data(v)); }
  static Value Float64(double v) { return Value(Data(v)); }
  static Value String(std::string v) {
    return Value(Data(std::make_shared<const std::string>(std::move(v))));
  }
  static Value Array(ArrayData elements) {
    return Value(Data(std::make_shared<const ArrayData>(std::move(elements))));
  }
  static Value Struct(StructData fields) {
    return Value(Data(std::make_shared<const StructData>(std::move(fields))));
  }

  TypeKind kind() const {
    return static_cast<TypeKind>(data_.index());
  }
  bool is_null() const { return kind() == TypeKind::kNull; }

  bool as_bool() const { return std::get<bool>(data_); }
  int64_t as_int64() const { return std::get<int64_t>(data_); }
  double as_float64() const { return std::get<double>(data_); }
  const std::string& as_string() const {
    return *std::get<std::shared_ptr<const std::string>>(data_);
  }
  const ArrayData& array() const {
    return *std::get<std::shared_ptr<const ArrayData>>(data_);
  }
  const StructData& struct_fields() const {
    return *std::get<std::shared_ptr<const StructData>>(data_);
  }

  /// Numeric coercion: int64 and float64 both convert; anything else is a
  /// programming error (call is_numeric-compatible kinds only).
  double AsFloat64() const {
    return kind() == TypeKind::kInt64 ? static_cast<double>(as_int64())
                                      : as_float64();
  }

  /// Struct field lookup by name; returns nullptr if absent or not a struct.
  const Value* FindField(const std::string& name) const;

  /// Total order over all values: nulls first, then by kind
  /// (bool < numeric < string < array < struct); int64/float64 compare
  /// numerically across kinds. Arrays/structs compare lexicographically.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== (numeric kinds hash by double value
  /// when integral-valued so that Int64(2) and Float64(2.0) collide).
  size_t Hash() const;

  /// Debug/display rendering: 'abc', [1, 2], {a: 1, b: 'x'}, null.
  std::string ToString() const;

 private:
  // Variant alternative order must match TypeKind enumerator order; kind()
  // relies on it.
  using Data = std::variant<std::monostate, bool, int64_t, double,
                            std::shared_ptr<const std::string>,
                            std::shared_ptr<const ArrayData>,
                            std::shared_ptr<const StructData>>;

  explicit Value(Data data) : data_(std::move(data)) {}

  Data data_;
};

/// Hash functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// A row is simply a vector of values; schemas live beside the data.
using Row = std::vector<Value>;

}  // namespace erbium

#endif  // ERBIUM_COMMON_VALUE_H_
