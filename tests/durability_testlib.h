#ifndef ERBIUM_TESTS_DURABILITY_TESTLIB_H_
#define ERBIUM_TESTS_DURABILITY_TESTLIB_H_

// Shared helpers for the durability tests: a mapping-independent logical
// state digest (to compare a recovered database against a serial oracle)
// and the deterministic operation script the fault-injection matrix
// replays.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/operator.h"
#include "mapping/database.h"

namespace erbium {
namespace durability_test {

/// Renders the full logical content of the database — every entity set
/// with all visible attributes, every relationship set — as a sorted,
/// mapping-independent string. Two databases hold the same logical state
/// iff their digests are equal, regardless of mapping or physical row
/// order.
inline Result<std::string> LogicalDigest(MappedDatabase* db) {
  std::string digest;
  const ERSchema& schema = db->schema();
  for (const std::string& entity : schema.EntitySetNames()) {
    ERBIUM_ASSIGN_OR_RETURN(std::vector<AttributeDef> attrs,
                            schema.AllAttributes(entity));
    ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> full_key,
                            schema.FullKey(entity));
    std::vector<std::string> names;
    for (const AttributeDef& attr : attrs) {
      if (std::find(full_key.begin(), full_key.end(), attr.name) ==
          full_key.end()) {
        names.push_back(attr.name);
      }
    }
    ERBIUM_ASSIGN_OR_RETURN(OperatorPtr scan, db->ScanEntity(entity, names));
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectRows(scan.get()));
    std::vector<std::string> rendered;
    for (const Row& row : rows) {
      std::string line;
      for (const Value& v : row) {
        line += v.ToString();
        line += "|";
      }
      rendered.push_back(std::move(line));
    }
    std::sort(rendered.begin(), rendered.end());
    digest += "entity " + entity + "\n";
    for (const std::string& line : rendered) digest += "  " + line + "\n";
  }
  for (const std::string& rel : schema.RelationshipSetNames()) {
    ERBIUM_ASSIGN_OR_RETURN(OperatorPtr scan, db->ScanRelationship(rel));
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectRows(scan.get()));
    std::vector<std::string> rendered;
    for (const Row& row : rows) {
      std::string line;
      for (const Value& v : row) {
        line += v.ToString();
        line += "|";
      }
      rendered.push_back(std::move(line));
    }
    std::sort(rendered.begin(), rendered.end());
    digest += "relationship " + rel + "\n";
    for (const std::string& line : rendered) digest += "  " + line + "\n";
  }
  return digest;
}

/// One logical write against a database. The fault tests apply the same
/// script to a durable database (crashing it mid-way) and to an in-memory
/// oracle (applying exactly the acknowledged prefix).
struct Op {
  std::string description;
  std::function<Status(MappedDatabase*)> apply;
};

inline Value MakeStruct(
    std::vector<std::pair<std::string, Value>> fields) {
  Value::StructData data;
  for (auto& [name, value] : fields) {
    data.emplace_back(name, std::move(value));
  }
  return Value::Struct(std::move(data));
}

/// A deterministic script touching every WAL record type the CRUD choke
/// points emit, and every storage variety of the Figure 4 schema: the R
/// hierarchy (plain R and subclasses), multi-valued attributes, weak
/// entities, a many-to-many relationship with attributes, the factorized
/// target R2S1, a 1:N foreign-key relationship, an attribute update, and
/// entity/relationship deletes (tombstones for checkpoint compaction).
inline std::vector<Op> FaultScript() {
  auto I = [](int64_t v) { return Value::Int64(v); };
  auto Str = [](const char* s) { return Value::String(s); };
  auto ints = [I](std::vector<int64_t> vs) {
    Value::ArrayData elements;
    for (int64_t v : vs) elements.push_back(I(v));
    return Value::Array(std::move(elements));
  };
  std::vector<Op> ops;
  auto r_entity = [&](int64_t id, int64_t a1) {
    return MakeStruct({{"r_id", I(id)},
                       {"r_a1", I(a1)},
                       {"r_a2", Value::Float64(1.5 * a1)},
                       {"r_a3", Str("r")},
                       {"r_a4", I(a1 % 7)},
                       {"r_mv1", ints({1, 2, 3})},
                       {"r_mv2", ints({})},
                       {"r_mv3", Value::Array({Str("x"), Str("y")})}});
  };
  ops.push_back({"insert S 1", [I, Str](MappedDatabase* db) {
                   return db->InsertEntity(
                       "S", MakeStruct({{"s_id", I(1)},
                                        {"s_a1", I(10)},
                                        {"s_a2", Str("s-one")}}));
                 }});
  ops.push_back({"insert S 2", [I, Str](MappedDatabase* db) {
                   return db->InsertEntity(
                       "S", MakeStruct({{"s_id", I(2)},
                                        {"s_a1", I(20)},
                                        {"s_a2", Str("s-two")}}));
                 }});
  ops.push_back({"insert R 1", [r_entity](MappedDatabase* db) {
                   return db->InsertEntity("R", r_entity(1, 100));
                 }});
  ops.push_back({"insert R2 2", [r_entity, I, Str](MappedDatabase* db) {
                   Value v = r_entity(2, 200);
                   Value::StructData fields(v.struct_fields().begin(),
                                            v.struct_fields().end());
                   fields.emplace_back("r2_a1", I(21));
                   fields.emplace_back("r2_a2", Str("two"));
                   return db->InsertEntity("R2",
                                           Value::Struct(std::move(fields)));
                 }});
  ops.push_back({"insert R1 5", [r_entity, I, Str](MappedDatabase* db) {
                   Value v = r_entity(5, 500);
                   Value::StructData fields(v.struct_fields().begin(),
                                            v.struct_fields().end());
                   fields.emplace_back("r1_a1", I(51));
                   fields.emplace_back("r1_a2", Str("five"));
                   return db->InsertEntity("R1",
                                           Value::Struct(std::move(fields)));
                 }});
  ops.push_back({"insert R3 4", [r_entity, I, Str](MappedDatabase* db) {
                   Value v = r_entity(4, 400);
                   Value::StructData fields(v.struct_fields().begin(),
                                            v.struct_fields().end());
                   fields.emplace_back("r1_a1", I(41));
                   fields.emplace_back("r1_a2", Str("four"));
                   fields.emplace_back("r3_a1", I(43));
                   fields.emplace_back("r3_a2", Value::Float64(4.25));
                   return db->InsertEntity("R3",
                                           Value::Struct(std::move(fields)));
                 }});
  ops.push_back({"insert S1 (1,1)", [I, Str](MappedDatabase* db) {
                   return db->InsertEntity(
                       "S1", MakeStruct({{"s_id", I(1)},
                                         {"s1_no", I(1)},
                                         {"s1_a1", I(11)},
                                         {"s1_a2", Str("weak")}}));
                 }});
  ops.push_back({"insert S2 (2,1)", [I](MappedDatabase* db) {
                   return db->InsertEntity(
                       "S2", MakeStruct({{"s_id", I(2)},
                                         {"s2_no", I(1)},
                                         {"s2_a1", Value::Float64(2.5)}}));
                 }});
  ops.push_back({"connect RS 1-1", [I](MappedDatabase* db) {
                   return db->InsertRelationship(
                       "RS", {I(1)}, {I(1)},
                       MakeStruct({{"rs_a1", I(7)}}));
                 }});
  ops.push_back({"connect RS 2-2", [I](MappedDatabase* db) {
                   return db->InsertRelationship(
                       "RS", {I(2)}, {I(2)},
                       MakeStruct({{"rs_a1", I(8)}}));
                 }});
  ops.push_back({"connect R2S1", [I](MappedDatabase* db) {
                   return db->InsertRelationship("R2S1", {I(2)}, {I(1), I(1)},
                                                 Value::Null());
                 }});
  ops.push_back({"connect R1R3", [I](MappedDatabase* db) {
                   return db->InsertRelationship("R1R3", {I(5)}, {I(4)},
                                                 Value::Null());
                 }});
  ops.push_back({"update R 1 r_a1", [I](MappedDatabase* db) {
                   return db->UpdateAttribute("R", {I(1)}, "r_a1", I(999));
                 }});
  ops.push_back({"insert R 9", [r_entity](MappedDatabase* db) {
                   return db->InsertEntity("R", r_entity(9, 900));
                 }});
  ops.push_back({"disconnect RS 2-2", [I](MappedDatabase* db) {
                   return db->DeleteRelationship("RS", {I(2)}, {I(2)});
                 }});
  ops.push_back({"delete R 9", [I](MappedDatabase* db) {
                   return db->DeleteEntity("R", {I(9)});
                 }});
  return ops;
}

}  // namespace durability_test
}  // namespace erbium

#endif  // ERBIUM_TESTS_DURABILITY_TESTLIB_H_
