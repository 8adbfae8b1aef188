#include "api/entity_store.h"

#include <algorithm>
#include <set>

namespace erbium {

namespace {

void AppendJsonEscaped(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void ToJsonRec(const Value& v, std::string* out) {
  switch (v.kind()) {
    case TypeKind::kNull:
      *out += "null";
      return;
    case TypeKind::kBool:
      *out += v.as_bool() ? "true" : "false";
      return;
    case TypeKind::kInt64:
      *out += std::to_string(v.as_int64());
      return;
    case TypeKind::kFloat64: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.as_float64());
      *out += buf;
      return;
    }
    case TypeKind::kString:
      AppendJsonEscaped(v.as_string(), out);
      return;
    case TypeKind::kArray: {
      out->push_back('[');
      Value::ArrayView elements = v.array();
      for (size_t i = 0; i < elements.size(); ++i) {
        if (i > 0) out->push_back(',');
        ToJsonRec(elements[i], out);
      }
      out->push_back(']');
      return;
    }
    case TypeKind::kStruct: {
      out->push_back('{');
      Value::StructView fields = v.struct_fields();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendJsonEscaped(fields[i].first, out);
        out->push_back(':');
        ToJsonRec(fields[i].second, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

std::string ToJson(const Value& v) {
  std::string out;
  ToJsonRec(v, &out);
  return out;
}

Status EntityStore::Put(const std::string& class_name, const Value& entity) {
  return db_->InsertEntity(class_name, entity);
}

Result<Value> EntityStore::Get(const std::string& class_name,
                               const IndexKey& key) {
  return db_->GetEntity(class_name, key);
}

Result<Value> EntityStore::GetExpanded(const std::string& class_name,
                                       const IndexKey& key) {
  ERBIUM_ASSIGN_OR_RETURN(Value base, db_->GetEntity(class_name, key));
  ERBIUM_ASSIGN_OR_RETURN(std::string specific,
                          db_->SpecificClassOf(class_name, key));
  Value::StructData fields(base.struct_fields().begin(),
                           base.struct_fields().end());
  const ERSchema& schema = db_->schema();
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> chain,
                          schema.AncestryChain(specific));

  // Owned weak entities, nested as arrays of their attribute structs.
  for (const std::string& cls : chain) {
    for (const std::string& weak : schema.WeakEntitiesOwnedBy(cls)) {
      ERBIUM_ASSIGN_OR_RETURN(std::vector<AttributeDef> weak_attrs,
                              schema.AllAttributes(weak));
      ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> weak_key_names,
                              schema.FullKey(weak));
      std::vector<std::string> attr_names;
      for (const AttributeDef& attr : weak_attrs) {
        bool is_key =
            std::find(weak_key_names.begin(), weak_key_names.end(),
                      attr.name) != weak_key_names.end();
        if (!is_key) attr_names.push_back(attr.name);
      }
      ERBIUM_ASSIGN_OR_RETURN(OperatorPtr scan,
                              db_->ScanEntity(weak, attr_names));
      ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectRows(scan.get()));
      ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> owner_key,
                              db_->mapping().KeyColumns(cls));
      Value::ArrayData nested;
      for (const Row& row : rows) {
        bool owned = true;
        for (size_t i = 0; i < key.size() && i < owner_key.size(); ++i) {
          if (row[i] != key[i]) {
            owned = false;
            break;
          }
        }
        if (!owned) continue;
        Value::StructData weak_fields;
        ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> weak_key,
                                schema.FullKey(weak));
        for (size_t i = 0; i < weak_key.size(); ++i) {
          weak_fields.emplace_back(weak_key[i], row[i]);
        }
        for (size_t i = 0; i < attr_names.size(); ++i) {
          weak_fields.emplace_back(attr_names[i], row[weak_key.size() + i]);
        }
        nested.push_back(Value::Struct(std::move(weak_fields)));
      }
      fields.emplace_back(weak, Value::Array(std::move(nested)));
    }
  }

  // One-hop relationship partners.
  for (const std::string& rel_name : schema.RelationshipSetNames()) {
    const RelationshipSetDef* rel = schema.FindRelationshipSet(rel_name);
    for (bool left : {true, false}) {
      const Participant& self = left ? rel->left : rel->right;
      const Participant& other = left ? rel->right : rel->left;
      bool participates = false;
      for (const std::string& cls : chain) {
        if (cls == self.entity ||
            schema.IsSelfOrDescendant(cls, self.entity)) {
          participates = true;
        }
      }
      if (!participates) continue;
      ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> self_key,
                              db_->mapping().KeyColumns(self.entity));
      if (self_key.size() != key.size()) continue;
      ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> other_key,
                              db_->mapping().KeyColumns(other.entity));
      ERBIUM_ASSIGN_OR_RETURN(OperatorPtr scan,
                              db_->ScanRelationship(rel_name));
      ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectRows(scan.get()));
      size_t left_size = left ? self_key.size() : other_key.size();
      Value::ArrayData partners;
      for (const Row& row : rows) {
        size_t base_offset = left ? 0 : left_size;
        bool match = true;
        for (size_t i = 0; i < key.size(); ++i) {
          if (row[base_offset + i] != key[i]) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        Value::StructData partner;
        size_t other_offset = left ? left_size : 0;
        for (size_t i = 0; i < other_key.size(); ++i) {
          partner.emplace_back(other_key[i].name, row[other_offset + i]);
        }
        size_t attrs_offset = self_key.size() + other_key.size();
        for (size_t i = 0; i < rel->attributes.size(); ++i) {
          partner.emplace_back(rel->attributes[i].name,
                               row[attrs_offset + i]);
        }
        partners.push_back(Value::Struct(std::move(partner)));
      }
      std::string field_name = rel_name + "." + other.role;
      fields.emplace_back(field_name, Value::Array(std::move(partners)));
    }
  }
  return Value::Struct(std::move(fields));
}

Result<std::string> EntityStore::GetJson(const std::string& class_name,
                                         const IndexKey& key) {
  ERBIUM_ASSIGN_OR_RETURN(Value entity, GetExpanded(class_name, key));
  return ToJson(entity);
}

Status EntityStore::Delete(const std::string& class_name,
                           const IndexKey& key) {
  return db_->DeleteEntity(class_name, key);
}

Result<std::vector<std::string>> EntityStore::PiiAttributes(
    const std::string& class_name) const {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<AttributeDef> attrs,
                          db_->schema().AllAttributes(class_name));
  std::vector<std::string> out;
  for (const AttributeDef& attr : attrs) {
    if (attr.pii) out.push_back(attr.name);
  }
  return out;
}

Result<Value> EntityStore::ExportSubject(const std::string& class_name,
                                         const IndexKey& key) {
  ERBIUM_ASSIGN_OR_RETURN(Value expanded, GetExpanded(class_name, key));
  ERBIUM_ASSIGN_OR_RETURN(std::string specific,
                          db_->SpecificClassOf(class_name, key));
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> pii,
                          PiiAttributes(specific));
  Value::StructData out;
  out.emplace_back("subject", std::move(expanded));
  Value::ArrayData pii_names;
  for (const std::string& name : pii) {
    pii_names.push_back(Value::String(name));
  }
  out.emplace_back("pii_attributes", Value::Array(std::move(pii_names)));
  return Value::Struct(std::move(out));
}

Status EntityStore::EraseSubject(const std::string& class_name,
                                 const IndexKey& key) {
  return db_->DeleteEntity(class_name, key);
}

Result<Value> EntityStore::Redact(const std::string& class_name,
                                  const Value& entity) const {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> pii,
                          PiiAttributes(class_name));
  std::set<std::string> pii_set(pii.begin(), pii.end());
  if (entity.kind() != TypeKind::kStruct) {
    return Status::InvalidArgument("entity value must be a struct");
  }
  Value::StructData fields(entity.struct_fields().begin(),
                           entity.struct_fields().end());
  for (auto& [name, value] : fields) {
    if (pii_set.count(name) > 0) value = Value::Null();
  }
  return Value::Struct(std::move(fields));
}

}  // namespace erbium
