// Differential CRUD-stream test: one seeded stream of entity and
// relationship writes — valid ones, wrong-typed values, duplicate keys,
// missing owners and participants, cardinality and duplicate-edge
// violations — applied to the Figure 4 schema under every mapping. M1 is
// the oracle: each operation's status code must match M1's, and the
// logical dump (point reads and bulk scans) must match M1's every few
// operations and at the end (logical data independence for writes,
// including rejected ones). Where a relationship is stored joined, its
// fused scan must equal the composition of its separate scans.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "logical_dump.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

constexpr int kOpsPerSeed = 600;
constexpr int kDumpEvery = 150;

/// One generated write: a description for failure messages and the call.
struct CrudOp {
  std::string description;
  std::function<Status(MappedDatabase*)> apply;
};

class CrudStreamGenerator {
 public:
  /// Keys are drawn mostly from the instances `oracle` holds now, so
  /// deletes, updates and relationship writes hit live instances.
  CrudStreamGenerator(MappedDatabase* oracle, uint64_t seed)
      : oracle_(oracle), schema_(&oracle->schema()), rng_(seed) {}

  CrudOp Next() {
    switch (Pick(10)) {
      case 0:
      case 1:
      case 2:
        return InsertEntity();
      case 3:
        return DeleteEntity();
      case 4:
      case 5:
        return UpdateAttribute();
      case 6:
      case 7:
      case 8:
        return InsertRelationship();
      default:
        return DeleteRelationship();
    }
  }

 private:
  int Pick(int n) { return static_cast<int>(rng_() % n); }
  bool Chance(int percent) { return Pick(100) < percent; }

  std::string PickEntity() {
    static const char* kSets[] = {"R", "R1", "R2", "R3", "R4", "S", "S1", "S2"};
    return kSets[Pick(8)];
  }

  /// A row of a scan of the oracle, or an empty row when there is none.
  Row LiveRow(Result<OperatorPtr> scan) {
    EXPECT_TRUE(scan.ok()) << scan.status().ToString();
    if (!scan.ok()) return {};
    auto rows = CollectRows(scan->get());
    if (!rows.ok() || rows->empty()) return {};
    return (*rows)[Pick(static_cast<int>(rows->size()))];
  }

  /// A full key for `cls`: with `live_percent` chance a live instance's,
  /// else one from a small domain (colliding with live ones, or not);
  /// now and then with a float in place of an int.
  IndexKey Key(const std::string& cls, int live_percent = 70) {
    IndexKey key;
    if (Chance(live_percent)) key = LiveRow(oracle_->ScanEntity(cls, {}));
    if (key.empty() && schema_->FindEntitySet(cls)->weak) {
      key.push_back(Value::Int64(1 + Pick(16)));  // s_id; 13+ never exist
      key.push_back(Value::Int64(1 + Pick(5)));   // partial key
    } else if (key.empty()) {
      key.push_back(Value::Int64(1 + Pick(cls[0] == 'S' ? 18 : 70)));
    }
    // An equal float names the same instance but is not a valid key.
    if (Chance(3)) {
      key[0] = Value::Float64(static_cast<double>(key[0].as_int64()));
    }
    return key;
  }

  /// A value of `type`; with a small chance, of the wrong kind.
  Value Scalar(const TypePtr& type, bool allow_wrong) {
    TypeKind kind = type->kind();
    if (allow_wrong && Chance(8)) {
      kind = kind == TypeKind::kString ? TypeKind::kInt64 : TypeKind::kString;
    }
    switch (kind) {
      case TypeKind::kInt64:
        return Value::Int64(Pick(50));
      case TypeKind::kFloat64:
        return Value::Float64(Pick(400) / 4.0);
      case TypeKind::kString:
        return Value::String("v" + std::to_string(Pick(30)));
      default:
        return Value::Null();
    }
  }

  Value AttributeValue(const AttributeDef& attr) {
    if (Chance(5)) return Value::Null();
    if (!attr.multi_valued) return Scalar(attr.type, true);
    if (Chance(4)) return Scalar(attr.type, false);  // not an array
    Value::ArrayData elements;
    for (int i = Pick(4); i > 0; --i) {
      elements.push_back(Chance(3) ? Value::Null() : Scalar(attr.type, true));
    }
    return Value::Array(std::move(elements));
  }

  CrudOp InsertEntity() {
    std::string cls = PickEntity();
    auto full_key = schema_->FullKey(cls).value();
    IndexKey key = Key(cls, 20);
    auto attrs = schema_->AllAttributes(cls).value();
    Value::StructData fields;
    for (size_t i = 0; i < full_key.size(); ++i) {
      if (Chance(3)) continue;  // missing key attribute
      fields.emplace_back(full_key[i], key[i]);
    }
    for (const AttributeDef& attr : attrs) {
      if (std::find(full_key.begin(), full_key.end(), attr.name) !=
              full_key.end() ||
          Chance(30)) {
        continue;
      }
      fields.emplace_back(attr.name, AttributeValue(attr));
    }
    Value entity = Value::Struct(std::move(fields));
    return {"InsertEntity(" + cls + ", " + entity.ToString() + ")",
            [cls, entity](MappedDatabase* db) {
              return db->InsertEntity(cls, entity);
            }};
  }

  CrudOp DeleteEntity() {
    std::string cls = PickEntity();
    IndexKey key = Key(cls);
    return {"DeleteEntity(" + cls + ", " + Value::Array(key).ToString() + ")",
            [cls, key](MappedDatabase* db) {
              return db->DeleteEntity(cls, key);
            }};
  }

  CrudOp UpdateAttribute() {
    std::string cls = PickEntity();
    IndexKey key = Key(cls);
    auto attrs = schema_->AllAttributes(cls).value();
    std::string attr_name = "ghost";
    Value value = Value::Int64(1);
    if (!Chance(3)) {
      const AttributeDef& attr = attrs[Pick(static_cast<int>(attrs.size()))];
      attr_name = attr.name;
      value = AttributeValue(attr);
    }
    return {"UpdateAttribute(" + cls + ", " + Value::Array(key).ToString() +
                ", " + attr_name + ", " + value.ToString() + ")",
            [cls, key, attr_name, value](MappedDatabase* db) {
              return db->UpdateAttribute(cls, key, attr_name, value);
            }};
  }

  /// Keys of a relationship's two participants.
  std::pair<IndexKey, IndexKey> RelationshipKeys(const std::string& rel) {
    const RelationshipSetDef* def = schema_->FindRelationshipSet(rel);
    return {Key(def->left.entity), Key(def->right.entity)};
  }

  std::string PickRelationship() {
    static const char* kRels[] = {"RS", "R2S1", "R1R3"};
    return kRels[Pick(3)];
  }

  CrudOp InsertRelationship() {
    std::string rel = PickRelationship();
    auto [left, right] = RelationshipKeys(rel);
    Value attrs = Value::Null();
    const RelationshipSetDef* def = schema_->FindRelationshipSet(rel);
    if (!def->attributes.empty() && !Chance(20)) {
      Value::StructData fields;
      for (const AttributeDef& attr : def->attributes) {
        fields.emplace_back(attr.name, Scalar(attr.type, true));
      }
      attrs = Value::Struct(std::move(fields));
    }
    return {"InsertRelationship(" + rel + ", " + Value::Array(left).ToString() +
                ", " + Value::Array(right).ToString() + ", " +
                attrs.ToString() + ")",
            [rel, left, right, attrs](MappedDatabase* db) {
              return db->InsertRelationship(rel, left, right, attrs);
            }};
  }

  CrudOp DeleteRelationship() {
    std::string rel = PickRelationship();
    auto [left, right] = RelationshipKeys(rel);
    Row edge = Chance(60) ? LiveRow(oracle_->ScanRelationship(rel)) : Row{};
    if (!edge.empty()) {
      auto mid = edge.begin() + left.size();
      left.assign(edge.begin(), mid);
      right.assign(mid, mid + right.size());
    }
    return {"DeleteRelationship(" + rel + ", " +
                Value::Array(left).ToString() + ", " +
                Value::Array(right).ToString() + ")",
            [rel, left, right](MappedDatabase* db) {
              return db->DeleteRelationship(rel, left, right);
            }};
  }

  MappedDatabase* oracle_;
  const ERSchema* schema_;
  std::mt19937_64 rng_;
};

/// The attributes of `cls` a joined scan can carry: visible, non-key, and
/// not stored in a multi-valued side table.
std::vector<std::string> JoinableAttributes(MappedDatabase* db,
                                            const std::string& cls) {
  const ERSchema& schema = db->schema();
  std::vector<std::string> key = schema.FullKey(cls).value();
  std::vector<std::string> out;
  std::vector<std::string> chain = schema.AncestryChain(cls).value();
  for (const std::string& declaring : chain) {
    for (const AttributeDef& attr :
         schema.FindEntitySet(declaring)->attributes) {
      bool side_table = attr.multi_valued &&
                        db->mapping().spec().multi_valued_storage(
                            declaring, attr.name) ==
                            MultiValuedStorage::kSeparateTable;
      if (std::find(key.begin(), key.end(), attr.name) == key.end() &&
          !side_table) {
        out.push_back(attr.name);
      }
    }
  }
  return out;
}

/// A row with each cell canonicalized.
std::string RowLine(const Row& row) {
  std::string line;
  for (const Value& v : row) line += Canonicalize(v).ToString() + " ";
  return line;
}

/// Where `rel` is stored joined, checks ScanRelationshipJoined against
/// ScanRelationship joined here with both sides' ScanEntity rows. Returns
/// whether the fused scan answered.
bool CheckJoinedScan(MappedDatabase* db, const std::string& rel) {
  const RelationshipSetDef* def = db->schema().FindRelationshipSet(rel);
  std::vector<std::string> left_attrs =
      JoinableAttributes(db, def->left.entity);
  std::vector<std::string> right_attrs =
      JoinableAttributes(db, def->right.entity);
  auto joined = db->ScanRelationshipJoined(rel, left_attrs, right_attrs);
  if (joined.status().code() == StatusCode::kNotImplemented) return false;
  EXPECT_TRUE(joined.ok()) << rel << ": " << joined.status().ToString();
  if (!joined.ok()) return false;

  // Each side's key -> its attribute values.
  auto by_key = [&](const std::string& cls,
                    const std::vector<std::string>& attrs) {
    std::map<IndexKey, Row> out;
    size_t key_len = db->schema().FullKey(cls).value().size();
    auto scan = db->ScanEntity(cls, attrs);
    EXPECT_TRUE(scan.ok()) << scan.status().ToString();
    if (!scan.ok()) return out;
    auto rows = CollectRows(scan->get());
    EXPECT_TRUE(rows.ok());
    if (!rows.ok()) return out;
    for (const Row& row : *rows) {
      out[IndexKey(row.begin(), row.begin() + key_len)] =
          Row(row.begin() + key_len, row.end());
    }
    return out;
  };
  std::map<IndexKey, Row> left = by_key(def->left.entity, left_attrs);
  std::map<IndexKey, Row> right = by_key(def->right.entity, right_attrs);
  size_t left_len = db->schema().FullKey(def->left.entity).value().size();
  size_t right_len = db->schema().FullKey(def->right.entity).value().size();
  auto edges = db->ScanRelationship(rel);
  EXPECT_TRUE(edges.ok());
  if (!edges.ok()) return false;
  auto edge_rows = CollectRows(edges->get());
  EXPECT_TRUE(edge_rows.ok());
  if (!edge_rows.ok()) return false;
  std::vector<std::string> expected;
  for (const Row& edge : *edge_rows) {
    IndexKey left_key(edge.begin(), edge.begin() + left_len);
    IndexKey right_key(edge.begin() + left_len,
                       edge.begin() + left_len + right_len);
    Row row = left_key;
    row.insert(row.end(), left[left_key].begin(), left[left_key].end());
    row.insert(row.end(), right_key.begin(), right_key.end());
    row.insert(row.end(), right[right_key].begin(), right[right_key].end());
    expected.push_back(RowLine(row));
  }
  auto fused = CollectRows(joined->get());
  EXPECT_TRUE(fused.ok()) << fused.status().ToString();
  if (!fused.ok()) return false;
  std::vector<std::string> got;
  for (const Row& row : *fused) got.push_back(RowLine(row));
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << rel << " fused scan differs from its composition";
  return true;
}

class CrudStreamTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CrudStreamTest, ::testing::Values(1, 2, 3));

TEST_P(CrudStreamTest, EveryMappingMatchesTheM1Oracle) {
  auto made = MakeFigure4Schema();
  ASSERT_TRUE(made.ok());
  auto schema = std::make_shared<ERSchema>(std::move(made).value());
  Figure4Config config;
  config.seed = GetParam();
  config.num_r = 40;
  config.num_s = 12;

  std::vector<MappingSpec> specs = Figure4AllMappings();
  specs.push_back(Figure4M6Pg());
  std::vector<std::unique_ptr<MappedDatabase>> dbs;
  for (const MappingSpec& spec : specs) {
    auto db = MappedDatabase::Create(schema.get(), spec);
    ASSERT_TRUE(db.ok()) << spec.name << ": " << db.status().ToString();
    ASSERT_TRUE(PopulateFigure4(db->get(), config).ok()) << spec.name;
    dbs.push_back(std::move(db).value());
  }
  MappedDatabase* oracle = dbs.front().get();  // M1

  int joined_checks = 0;
  auto compare_dumps = [&](int op_index) {
    std::string expected = LogicalDump(oracle);
    for (size_t i = 1; i < dbs.size(); ++i) {
      ASSERT_EQ(LogicalDump(dbs[i].get()), expected)
          << specs[i].name << " diverged from M1 after op " << op_index;
    }
    for (size_t i = 0; i < dbs.size(); ++i) {
      for (const std::string& rel : oracle->schema().RelationshipSetNames()) {
        SCOPED_TRACE(specs[i].name + ", op " + std::to_string(op_index));
        if (CheckJoinedScan(dbs[i].get(), rel)) ++joined_checks;
      }
    }
  };

  CrudStreamGenerator generator(oracle, GetParam());
  int rejected = 0;
  for (int op_index = 0; op_index < kOpsPerSeed; ++op_index) {
    CrudOp op = generator.Next();
    Status expected = op.apply(oracle);
    if (!expected.ok()) ++rejected;
    for (size_t i = 1; i < dbs.size(); ++i) {
      Status got = op.apply(dbs[i].get());
      ASSERT_EQ(got.code(), expected.code())
          << specs[i].name << ", op " << op_index << ": " << op.description
          << "\n  M1: " << expected.ToString() << "\n  "
          << specs[i].name << ": " << got.ToString();
    }
    if ((op_index + 1) % kDumpEvery == 0) {
      ASSERT_NO_FATAL_FAILURE(compare_dumps(op_index));
    }
  }
  ASSERT_NO_FATAL_FAILURE(compare_dumps(kOpsPerSeed));
  // The stream exercises both outcomes, and M6 and M6pg answer fused
  // scans of R2S1 at every comparison.
  EXPECT_EQ(joined_checks, 2 * (kOpsPerSeed / kDumpEvery + 1));
  EXPECT_GT(rejected, kOpsPerSeed / 10);
  EXPECT_LT(rejected, kOpsPerSeed * 9 / 10);
}

}  // namespace
}  // namespace erbium
