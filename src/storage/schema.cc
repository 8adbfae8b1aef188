#include "storage/schema.h"

namespace erbium {

int TableSchema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status TableSchema::ValidateRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match table " +
        name_ + " arity " + std::to_string(columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    Status st = ValidateValue(row[i], columns_[i].type, columns_[i].nullable);
    if (!st.ok()) {
      return Status(st.code(), "column " + columns_[i].name + " of table " +
                                   name_ + ": " + st.message());
    }
  }
  return Status::OK();
}

std::string TableSchema::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name + ": " + columns_[i].type->ToString();
    if (!columns_[i].nullable) out += " not null";
  }
  out += ")";
  if (!key_.empty()) {
    out += " key(";
    for (size_t i = 0; i < key_.size(); ++i) {
      if (i > 0) out += ", ";
      out += columns_[key_[i]].name;
    }
    out += ")";
  }
  return out;
}

Status ValidateValue(const Value& value, const TypePtr& type, bool nullable) {
  if (value.is_null()) {
    if (!nullable) return Status::ConstraintViolation("null in non-null slot");
    return Status::OK();
  }
  if (!type) return Status::Internal("missing type descriptor");
  switch (type->kind()) {
    case TypeKind::kNull:
      return Status::ConstraintViolation("non-null value in null-typed slot");
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kFloat64:
    case TypeKind::kString:
      if (value.kind() != type->kind()) {
        return Status::ConstraintViolation(
            std::string("expected ") + TypeKindToString(type->kind()) +
            ", got " + TypeKindToString(value.kind()));
      }
      return Status::OK();
    case TypeKind::kArray: {
      if (value.kind() != TypeKind::kArray) {
        return Status::ConstraintViolation(
            std::string("expected array, got ") +
            TypeKindToString(value.kind()));
      }
      for (const Value& element : value.array()) {
        ERBIUM_RETURN_NOT_OK(
            ValidateValue(element, type->element_type(), /*nullable=*/true));
      }
      return Status::OK();
    }
    case TypeKind::kStruct: {
      if (value.kind() != TypeKind::kStruct) {
        return Status::ConstraintViolation(
            std::string("expected struct, got ") +
            TypeKindToString(value.kind()));
      }
      Value::StructView fields = value.struct_fields();
      if (fields.size() != type->fields().size()) {
        return Status::ConstraintViolation("struct field count mismatch");
      }
      for (size_t i = 0; i < fields.size(); ++i) {
        if (fields[i].first != type->fields()[i].name) {
          return Status::ConstraintViolation(
              "struct field name mismatch: expected " +
              type->fields()[i].name + ", got " + fields[i].first);
        }
        ERBIUM_RETURN_NOT_OK(ValidateValue(
            fields[i].second, type->fields()[i].type, /*nullable=*/true));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable type kind");
}

}  // namespace erbium
