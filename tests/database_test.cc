// Integration tests of MappedDatabase across all six paper mappings: the
// logical content (counts, entity values, scans, relationship instances)
// must be identical under every physical mapping — the logical data
// independence the paper argues for.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "workload/figure4.h"

namespace erbium {
namespace {

Figure4Config SmallConfig() {
  Figure4Config config;
  config.num_r = 300;
  config.num_s = 80;
  return config;
}

struct MappingCase {
  MappingSpec spec;
};

class AllMappingsTest : public ::testing::TestWithParam<MappingSpec> {
 protected:
  void SetUp() override {
    auto db = MakeFigure4Database(GetParam(), SmallConfig(), &schema_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  std::shared_ptr<ERSchema> schema_;
  std::unique_ptr<MappedDatabase> db_;
};

INSTANTIATE_TEST_SUITE_P(
    Figure4, AllMappingsTest,
    ::testing::ValuesIn(Figure4AllMappings()),
    [](const ::testing::TestParamInfo<MappingSpec>& info) {
      return info.param.name;
    });

TEST_P(AllMappingsTest, EntityCountsMatchBaseline) {
  // Baseline counts computed once from the generator parameters under M1.
  static std::map<std::string, size_t>* baseline = nullptr;
  std::map<std::string, size_t> counts;
  for (const char* cls :
       {"R", "R1", "R2", "R3", "R4", "S", "S1", "S2"}) {
    auto count = db_->CountEntities(cls);
    ASSERT_TRUE(count.ok()) << cls << ": " << count.status().ToString();
    counts[cls] = count.value();
  }
  // Structural sanity: hierarchy containment.
  EXPECT_EQ(counts["R"], static_cast<size_t>(SmallConfig().num_r));
  EXPECT_GE(counts["R1"], counts["R3"] + counts["R4"]);
  EXPECT_GT(counts["R2"], 0u);
  EXPECT_EQ(counts["S"], static_cast<size_t>(SmallConfig().num_s));
  if (baseline == nullptr) {
    baseline = new std::map<std::string, size_t>(counts);
  } else {
    EXPECT_EQ(*baseline, counts) << "under mapping " << GetParam().name;
  }
}

TEST_P(AllMappingsTest, RelationshipCountsMatchBaseline) {
  static std::map<std::string, size_t>* baseline = nullptr;
  std::map<std::string, size_t> counts;
  for (const char* rel : {"RS", "R2S1", "R1R3"}) {
    auto count = db_->CountRelationships(rel);
    ASSERT_TRUE(count.ok()) << rel << ": " << count.status().ToString();
    counts[rel] = count.value();
    EXPECT_GT(counts[rel], 0u) << rel;
  }
  if (baseline == nullptr) {
    baseline = new std::map<std::string, size_t>(counts);
  } else {
    EXPECT_EQ(*baseline, counts) << "under mapping " << GetParam().name;
  }
}

TEST_P(AllMappingsTest, GetEntityIsMappingIndependent) {
  // Spot-check a handful of entities: the nested value assembled under
  // any mapping must be identical (same attributes, same arrays up to
  // order — arrays are sorted before comparison since side tables do not
  // define an order).
  static std::map<int64_t, std::string>* baseline = nullptr;
  std::map<int64_t, std::string> rendered;
  for (int64_t id : {1, 7, 42, 137, 263}) {
    auto entity = db_->GetEntity("R", {Value::Int64(id)});
    ASSERT_TRUE(entity.ok()) << entity.status().ToString();
    // Normalize: sort array fields.
    Value::StructData fields(entity->struct_fields().begin(),
                             entity->struct_fields().end());
    for (auto& [name, value] : fields) {
      if (value.kind() == TypeKind::kArray) {
        Value::ArrayData elements(value.array().begin(), value.array().end());
        std::sort(elements.begin(), elements.end());
        value = Value::Array(std::move(elements));
      }
    }
    rendered[id] = Value::Struct(std::move(fields)).ToString();
  }
  if (baseline == nullptr) {
    baseline = new std::map<int64_t, std::string>(rendered);
  } else {
    EXPECT_EQ(*baseline, rendered) << "under mapping " << GetParam().name;
  }
}

TEST_P(AllMappingsTest, ScanEntityProducesAllInstances) {
  auto scan = db_->ScanEntity("R3", {"r_a1", "r1_a1", "r3_a1"});
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  auto rows = CollectRows(scan->get());
  ASSERT_TRUE(rows.ok());
  auto count = db_->CountEntities("R3");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(rows->size(), count.value());
  for (const Row& row : rows.value()) {
    ASSERT_EQ(row.size(), 4u);  // key + three attrs
    EXPECT_EQ(row[0].kind(), TypeKind::kInt64);
    EXPECT_FALSE(row[1].is_null());
    EXPECT_FALSE(row[2].is_null());
    EXPECT_FALSE(row[3].is_null());
  }
}

TEST_P(AllMappingsTest, ScanMultiValuedMatchesArrays) {
  // Sum of array sizes must equal the number of unnested rows.
  auto scan = db_->ScanEntity("R", {"r_mv1"});
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  auto rows = CollectRows(scan->get());
  ASSERT_TRUE(rows.ok());
  size_t total = 0;
  for (const Row& row : rows.value()) {
    ASSERT_EQ(row[1].kind(), TypeKind::kArray);
    total += row[1].array().size();
  }
  auto unnested = db_->ScanMultiValued("R", "r_mv1");
  ASSERT_TRUE(unnested.ok()) << unnested.status().ToString();
  auto unnested_rows = CollectRows(unnested->get());
  ASSERT_TRUE(unnested_rows.ok());
  EXPECT_EQ(unnested_rows->size(), total);
}

TEST_P(AllMappingsTest, LookupEntityFindsPointRow) {
  auto plan = db_->LookupEntity("R", {Value::Int64(42)}, {"r_a1", "r_mv1"});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto rows = CollectRows(plan->get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->front()[0], Value::Int64(42));
}

TEST_P(AllMappingsTest, WeakEntityScanIncludesOwnerKey) {
  auto scan = db_->ScanEntity("S1", {"s1_a1"});
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  auto rows = CollectRows(scan->get());
  ASSERT_TRUE(rows.ok());
  auto count = db_->CountEntities("S1");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(rows->size(), count.value());
  for (const Row& row : rows.value()) {
    ASSERT_EQ(row.size(), 3u);  // s_id, s1_no, s1_a1
    EXPECT_FALSE(row[0].is_null());
    EXPECT_FALSE(row[1].is_null());
  }
}

TEST_P(AllMappingsTest, DeleteEntityCascades) {
  // Delete one S that owns weak entities and participates in RS; all
  // traces must disappear.
  auto before_s1 = db_->CountEntities("S1");
  ASSERT_TRUE(before_s1.ok());
  auto before_rs = db_->CountRelationships("RS");
  ASSERT_TRUE(before_rs.ok());

  IndexKey s_key{Value::Int64(1)};
  ASSERT_TRUE(db_->EntityExists("S", s_key).value());
  Status st = db_->DeleteEntity("S", s_key);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(db_->EntityExists("S", s_key).value());

  // No RS edge may reference s_id = 1 anymore.
  auto rs = db_->ScanRelationship("RS");
  ASSERT_TRUE(rs.ok());
  auto rs_rows = CollectRows(rs->get());
  ASSERT_TRUE(rs_rows.ok());
  for (const Row& row : rs_rows.value()) {
    EXPECT_NE(row[1], Value::Int64(1));
  }
  // Owned weak entities are gone.
  auto s1_scan = db_->ScanEntity("S1", {});
  ASSERT_TRUE(s1_scan.ok());
  auto s1_rows = CollectRows(s1_scan->get());
  ASSERT_TRUE(s1_rows.ok());
  for (const Row& row : s1_rows.value()) {
    EXPECT_NE(row[0], Value::Int64(1));
  }
}

TEST_P(AllMappingsTest, DeleteSubclassInstanceRemovesWholeEntity) {
  // Find an R2 instance, delete via R2 handle, confirm gone from R.
  auto scan = db_->ScanEntity("R2", {});
  ASSERT_TRUE(scan.ok());
  auto rows = CollectRows(scan->get());
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  IndexKey key{rows->front()[0]};
  Status st = db_->DeleteEntity("R2", key);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(db_->EntityExists("R", key).value());
  EXPECT_FALSE(db_->EntityExists("R2", key).value());
}

TEST_P(AllMappingsTest, UpdateAttributeRoundTrips) {
  IndexKey key{Value::Int64(42)};
  Status st = db_->UpdateAttribute("R", key, "r_a1", Value::Int64(-7));
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto entity = db_->GetEntity("R", key);
  ASSERT_TRUE(entity.ok());
  const Value* v = entity->FindField("r_a1");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, Value::Int64(-7));

  // Multi-valued update.
  st = db_->UpdateAttribute(
      "R", key, "r_mv1",
      Value::Array({Value::Int64(1), Value::Int64(2), Value::Int64(3)}));
  ASSERT_TRUE(st.ok()) << st.ToString();
  entity = db_->GetEntity("R", key);
  ASSERT_TRUE(entity.ok());
  v = entity->FindField("r_mv1");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->kind(), TypeKind::kArray);
  EXPECT_EQ(v->array().size(), 3u);
}

TEST_P(AllMappingsTest, InsertRejectsDuplicateKeys) {
  Value::StructData fields;
  fields.emplace_back("r_id", Value::Int64(42));  // exists
  Status st = db_->InsertEntity("R", Value::Struct(std::move(fields)));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << st.ToString();
}

TEST_P(AllMappingsTest, RelationshipEnforcesReferentialIntegrity) {
  Status st = db_->InsertRelationship("RS", {Value::Int64(999999)},
                                      {Value::Int64(1)});
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation) << st.ToString();
  // R2S1 requires the left side to actually be an R2: pick an id that is
  // plain R.
  auto specific = db_->SpecificClassOf("R", {Value::Int64(1)});
  ASSERT_TRUE(specific.ok());
  if (specific.value() == "R") {
    auto s1_scan = db_->ScanEntity("S1", {});
    ASSERT_TRUE(s1_scan.ok());
    auto s1_rows = CollectRows(s1_scan->get());
    ASSERT_TRUE(s1_rows.ok());
    ASSERT_FALSE(s1_rows->empty());
    st = db_->InsertRelationship(
        "R2S1", {Value::Int64(1)},
        {s1_rows->front()[0], s1_rows->front()[1]});
    EXPECT_EQ(st.code(), StatusCode::kConstraintViolation)
        << "plain R accepted as R2: " << st.ToString();
  }
}

TEST_P(AllMappingsTest, SpecificClassIsConsistent) {
  // Every R3 is also an R1 and an R.
  auto scan = db_->ScanEntity("R3", {});
  ASSERT_TRUE(scan.ok());
  auto rows = CollectRows(scan->get());
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  IndexKey key{rows->front()[0]};
  EXPECT_TRUE(db_->EntityExists("R1", key).value());
  EXPECT_TRUE(db_->EntityExists("R", key).value());
  EXPECT_FALSE(db_->EntityExists("R2", key).value());
  auto specific = db_->SpecificClassOf("R", key);
  ASSERT_TRUE(specific.ok());
  EXPECT_EQ(specific.value(), "R3");
}

TEST_P(AllMappingsTest, CardinalityConstraintEnforced) {
  // R1R3 has a ONE parent side: linking a second parent to the same
  // child must fail.
  auto rel_scan = db_->ScanRelationship("R1R3");
  ASSERT_TRUE(rel_scan.ok());
  auto rel_rows = CollectRows(rel_scan->get());
  ASSERT_TRUE(rel_rows.ok());
  ASSERT_FALSE(rel_rows->empty());
  Value child_id = rel_rows->front()[1];
  // Any other R1-family instance as a second parent.
  auto r1_scan = db_->ScanEntity("R1", {});
  ASSERT_TRUE(r1_scan.ok());
  auto r1_rows = CollectRows(r1_scan->get());
  ASSERT_TRUE(r1_rows.ok());
  for (const Row& row : r1_rows.value()) {
    if (row[0] != rel_rows->front()[0]) {
      Status st = db_->InsertRelationship("R1R3", {row[0]}, {child_id});
      EXPECT_EQ(st.code(), StatusCode::kConstraintViolation)
          << st.ToString();
      break;
    }
  }
}

TEST_P(AllMappingsTest, RelationshipDeleteIsSymmetric) {
  auto rs = db_->ScanRelationship("RS");
  ASSERT_TRUE(rs.ok());
  auto rows = CollectRows(rs->get());
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  size_t before = rows->size();
  IndexKey left{rows->front()[0]};
  IndexKey right{rows->front()[1]};
  Status st = db_->DeleteRelationship("RS", left, right);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto count = db_->CountRelationships("RS");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), before - 1);
  // Both entities survive the edge deletion.
  EXPECT_TRUE(db_->EntityExists("R", left).value());
  EXPECT_TRUE(db_->EntityExists("S", right).value());
  // Deleting again fails cleanly.
  st = db_->DeleteRelationship("RS", left, right);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST_P(AllMappingsTest, CoverIsValid) {
  auto graph = ERGraph::Build(db_->schema());
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto cover = db_->mapping().Cover(graph.value());
  ASSERT_TRUE(cover.ok()) << cover.status().ToString();
  Status st = PhysicalMapping::ValidateCover(graph.value(), cover.value());
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace erbium
