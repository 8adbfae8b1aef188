#ifndef ERBIUM_TESTS_LOGICAL_DUMP_H_
#define ERBIUM_TESTS_LOGICAL_DUMP_H_

// A mapping-independent rendering of a database's logical content, shared
// by the tests that compare two databases across mappings: every entity
// (via GetEntity, arrays canonicalized) and every relationship instance,
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

/// Full logical dump: every entity of every root/weak set rendered, plus
/// every relationship instance, sorted.
inline std::string LogicalDump(MappedDatabase* db) {
  std::vector<std::string> lines;
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
    auto scan = db->ScanRelationship(rel);
    EXPECT_TRUE(scan.ok());
    if (!scan.ok()) continue;
    auto rows = CollectRows(scan->get());
    EXPECT_TRUE(rows.ok());
    if (!rows.ok()) continue;
    for (const Row& row : *rows) {
      std::string line = rel + ":";
      for (const Value& v : row) line += " " + v.ToString();
      lines.push_back(std::move(line));
    }
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
