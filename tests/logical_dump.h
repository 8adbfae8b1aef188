#ifndef ERBIUM_TESTS_LOGICAL_DUMP_H_
#define ERBIUM_TESTS_LOGICAL_DUMP_H_

// A mapping-independent rendering of a database's logical content, shared
// by the tests that compare two databases across mappings: every entity
// (via GetEntity, arrays canonicalized), every relationship instance, and
// the bulk reads (ScanEntity of every set with all its visible non-key
// attributes, ScanMultiValued of every visible multi-valued attribute),
// as sorted lines.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "mapping/database.h"

namespace erbium {

/// Arrays sorted (multi-valued attributes are sets), recursively.
inline Value Canonicalize(const Value& v) {
  if (v.kind() == TypeKind::kArray) {
    Value::ArrayData elements;
    for (const Value& e : v.array()) elements.push_back(Canonicalize(e));
    std::sort(elements.begin(), elements.end());
    return Value::Array(std::move(elements));
  }
  if (v.kind() == TypeKind::kStruct) {
    Value::StructData fields;
    for (const auto& [name, value] : v.struct_fields()) {
      fields.emplace_back(name, Canonicalize(value));
    }
    // Field order is schema-defined and stable; keep it.
    return Value::Struct(std::move(fields));
  }
  return v;
}

/// Appends one line per row of `plan` (cells canonicalized), or fails the
/// test when the plan could not be built or run.
inline void AppendRows(const std::string& label, Result<OperatorPtr> plan,
                       std::vector<std::string>* lines) {
  EXPECT_TRUE(plan.ok()) << label << ": " << plan.status().ToString();
  if (!plan.ok()) return;
  auto rows = CollectRows(plan->get());
  EXPECT_TRUE(rows.ok()) << label << ": " << rows.status().ToString();
  if (!rows.ok()) return;
  for (const Row& row : *rows) {
    std::string line = label + ":";
    for (const Value& v : row) line += " " + Canonicalize(v).ToString();
    lines->push_back(std::move(line));
  }
}

/// The visible non-key attributes of an entity set, in schema order.
inline std::vector<AttributeDef> ValueAttributes(const ERSchema& schema,
                                                 const std::string& name) {
  std::vector<std::string> key = schema.FullKey(name).value();
  std::vector<AttributeDef> all = schema.AllAttributes(name).value();
  std::vector<AttributeDef> out;
  for (const AttributeDef& attr : all) {
    if (std::find(key.begin(), key.end(), attr.name) == key.end()) {
      out.push_back(attr);
    }
  }
  return out;
}

/// Full logical dump: every entity of every root/weak set rendered, every
/// relationship instance, and the bulk scans of every set, sorted.
inline std::string LogicalDump(MappedDatabase* db) {
  std::vector<std::string> lines;
  for (const std::string& name : db->schema().EntitySetNames()) {
    std::vector<std::string> attrs;
    for (const AttributeDef& attr : ValueAttributes(db->schema(), name)) {
      attrs.push_back(attr.name);
      if (attr.multi_valued) {
        AppendRows("unnest " + name + "." + attr.name,
                   db->ScanMultiValued(name, attr.name), &lines);
      }
    }
    AppendRows("scan " + name, db->ScanEntity(name, attrs), &lines);
  }
  for (const std::string& name : db->schema().EntitySetNames()) {
    const EntitySetDef* def = db->schema().FindEntitySet(name);
    if (def->is_subclass()) continue;  // covered by the root scan
    auto scan = db->ScanEntity(name, {});
    EXPECT_TRUE(scan.ok()) << scan.status().ToString();
    if (!scan.ok()) continue;
    auto keys = CollectRows(scan->get());
    EXPECT_TRUE(keys.ok());
    if (!keys.ok()) continue;
    for (const Row& key_row : *keys) {
      IndexKey key(key_row.begin(), key_row.end());
      auto entity = db->GetEntity(name, key);
      EXPECT_TRUE(entity.ok()) << entity.status().ToString();
      if (entity.ok()) {
        lines.push_back(name + ": " + Canonicalize(*entity).ToString());
      }
    }
  }
  for (const std::string& rel : db->schema().RelationshipSetNames()) {
    AppendRows(rel, db->ScanRelationship(rel), &lines);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

}  // namespace erbium

#endif  // ERBIUM_TESTS_LOGICAL_DUMP_H_
