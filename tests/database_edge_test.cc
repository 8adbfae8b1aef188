// Edge-case CRUD tests: M6pg (materialized-join) storage semantics —
// lone rows, duplication-aware updates, edge deletion splitting rows —
// plus composite attributes end-to-end, GetEntity metadata, and
// miscellaneous error paths, and the all-or-nothing contract of a
// rejected write under every mapping.

#include <gtest/gtest.h>

#include <functional>

#include "er/ddl_parser.h"
#include "logical_dump.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

Value I(int64_t v) { return Value::Int64(v); }

class M6PgCrudTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Figure4Config config;
    config.num_r = 0;  // start empty; we drive CRUD by hand
    config.num_s = 0;
    auto db = MakeFigure4Database(Figure4M6Pg(), config, &schema_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    // Two R2 entities and one S with two S1s.
    for (int64_t id : {1, 2}) {
      Value::StructData fields;
      fields.emplace_back("r_id", I(id));
      fields.emplace_back("r2_a1", I(id * 10));
      fields.emplace_back("r2_a2", Value::String("x"));
      ASSERT_TRUE(
          db_->InsertEntity("R2", Value::Struct(std::move(fields))).ok());
    }
    ASSERT_TRUE(db_->InsertEntity(
                       "S", Value::Struct({{"s_id", I(1)},
                                           {"s_a1", I(5)},
                                           {"s_a2", Value::String("s")}}))
                    .ok());
    for (int64_t no : {1, 2}) {
      ASSERT_TRUE(db_->InsertEntity(
                         "S1", Value::Struct({{"s_id", I(1)},
                                              {"s1_no", I(no)},
                                              {"s1_a1", I(no * 100)},
                                              {"s1_a2", Value::String("w")}}))
                      .ok());
    }
  }

  size_t JoinedRowCount() {
    return db_->catalog().GetTable("R2S1_joined")->size();
  }

  std::shared_ptr<ERSchema> schema_;
  std::unique_ptr<MappedDatabase> db_;
};

TEST_F(M6PgCrudTest, LoneRowsMergeOnConnect) {
  // 2 lone R2 rows + 2 lone S1 rows.
  EXPECT_EQ(JoinedRowCount(), 4u);
  ASSERT_TRUE(db_->InsertRelationship("R2S1", {I(1)}, {I(1), I(1)}).ok());
  // Lone R2(1) and lone S1(1,1) merged into one row.
  EXPECT_EQ(JoinedRowCount(), 3u);
  EXPECT_EQ(db_->CountRelationships("R2S1").value(), 1u);
  // Entities are all still visible.
  EXPECT_EQ(db_->CountEntities("R2").value(), 2u);
  EXPECT_EQ(db_->CountEntities("S1").value(), 2u);
}

TEST_F(M6PgCrudTest, ManyToManyDuplicatesSegments) {
  ASSERT_TRUE(db_->InsertRelationship("R2S1", {I(1)}, {I(1), I(1)}).ok());
  ASSERT_TRUE(db_->InsertRelationship("R2S1", {I(1)}, {I(1), I(2)}).ok());
  ASSERT_TRUE(db_->InsertRelationship("R2S1", {I(2)}, {I(1), I(1)}).ok());
  // R2(1) appears on two rows, S1(1,1) on two rows: duplication.
  // Rows: (1,(1,1)), (1,(1,2)), (2,(1,1)) = 3, no lone rows left.
  EXPECT_EQ(JoinedRowCount(), 3u);
  // Entity scans still deduplicate.
  EXPECT_EQ(db_->CountEntities("R2").value(), 2u);
  EXPECT_EQ(db_->CountEntities("S1").value(), 2u);
  // An attribute update must hit every duplicated copy.
  ASSERT_TRUE(db_->UpdateAttribute("R2", {I(1)}, "r2_a1", I(-7)).ok());
  auto scan = db_->ScanEntity("R2", {"r2_a1"});
  ASSERT_TRUE(scan.ok());
  auto rows = CollectRows(scan->get());
  ASSERT_TRUE(rows.ok());
  for (const Row& row : *rows) {
    if (row[0] == I(1)) {
      EXPECT_EQ(row[1], I(-7));
    }
  }
  // And the joined scan sees the new value everywhere too.
  auto joined = db_->ScanRelationshipJoined("R2S1", {"r2_a1"}, {});
  ASSERT_TRUE(joined.ok());
  auto joined_rows = CollectRows(joined->get());
  ASSERT_TRUE(joined_rows.ok());
  for (const Row& row : *joined_rows) {
    if (row[0] == I(1)) {
      EXPECT_EQ(row[1], I(-7));
    }
  }
}

TEST_F(M6PgCrudTest, EdgeDeletePreservesLoneEntities) {
  ASSERT_TRUE(db_->InsertRelationship("R2S1", {I(1)}, {I(1), I(1)}).ok());
  ASSERT_TRUE(db_->DeleteRelationship("R2S1", {I(1)}, {I(1), I(1)}).ok());
  EXPECT_EQ(db_->CountRelationships("R2S1").value(), 0u);
  // Both entities survive as lone rows.
  EXPECT_TRUE(db_->EntityExists("R2", {I(1)}).value());
  EXPECT_TRUE(db_->EntityExists("S1", {I(1), I(1)}).value());
  EXPECT_EQ(JoinedRowCount(), 4u);
}

TEST_F(M6PgCrudTest, EntityDeleteRemovesAllCopies) {
  ASSERT_TRUE(db_->InsertRelationship("R2S1", {I(1)}, {I(1), I(1)}).ok());
  ASSERT_TRUE(db_->InsertRelationship("R2S1", {I(1)}, {I(1), I(2)}).ok());
  ASSERT_TRUE(db_->DeleteEntity("R2", {I(1)}).ok());
  EXPECT_FALSE(db_->EntityExists("R2", {I(1)}).value());
  EXPECT_FALSE(db_->EntityExists("R", {I(1)}).value());
  EXPECT_EQ(db_->CountRelationships("R2S1").value(), 0u);
  // The S1 partners survive (as lone rows).
  EXPECT_EQ(db_->CountEntities("S1").value(), 2u);
}

TEST(CompositeAttributeTest, RoundTripsThroughStorage) {
  ERSchema schema;
  ASSERT_TRUE(DdlParser::Execute(R"(
    CREATE ENTITY Place (
      id INT KEY,
      location STRUCT(lat FLOAT, lon FLOAT),
      tags STRING MULTIVALUED
    );)",
                                 &schema)
                  .ok());
  for (MultiValuedStorage mv :
       {MultiValuedStorage::kSeparateTable, MultiValuedStorage::kArray}) {
    MappingSpec spec = MappingSpec::Normalized();
    spec.default_multi_valued = mv;
    auto db = MappedDatabase::Create(&schema, spec);
    ASSERT_TRUE(db.ok());
    Value location = Value::Struct(
        {{"lat", Value::Float64(38.99)}, {"lon", Value::Float64(-76.94)}});
    ASSERT_TRUE(
        (*db)->InsertEntity(
                 "Place",
                 Value::Struct({{"id", I(1)},
                                {"location", location},
                                {"tags", Value::Array({Value::String("a"),
                                                       Value::String("b")})}}))
            .ok());
    auto entity = (*db)->GetEntity("Place", {I(1)});
    ASSERT_TRUE(entity.ok());
    const Value* loc = entity->FindField("location");
    ASSERT_NE(loc, nullptr);
    EXPECT_EQ(*loc, location);
    const Value* tags = entity->FindField("tags");
    ASSERT_NE(tags, nullptr);
    EXPECT_EQ(tags->array().size(), 2u);
    // Struct field mismatch is rejected by validation.
    Status st = (*db)->InsertEntity(
        "Place",
        Value::Struct({{"id", I(2)},
                       {"location", Value::Struct({{"lon", Value::Float64(0)},
                                                   {"lat", Value::Float64(0)}})}}));
    EXPECT_EQ(st.code(), StatusCode::kConstraintViolation) << st.ToString();
  }
}

TEST(GetEntityMetadataTest, IncludesSpecificClass) {
  Figure4Config config;
  config.num_r = 60;
  config.num_s = 20;
  std::shared_ptr<ERSchema> schema;
  auto db = MakeFigure4Database(Figure4M1(), config, &schema);
  ASSERT_TRUE(db.ok());
  auto scan = (*db)->ScanEntity("R4", {});
  ASSERT_TRUE(scan.ok());
  auto rows = CollectRows(scan->get());
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  auto entity = (*db)->GetEntity("R", {rows->front()[0]});
  ASSERT_TRUE(entity.ok());
  const Value* cls = entity->FindField("_class");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(*cls, Value::String("R4"));
  // R4-specific attribute is present, sibling attributes are not.
  EXPECT_NE(entity->FindField("r4_a1"), nullptr);
  EXPECT_EQ(entity->FindField("r2_a1"), nullptr);
}

TEST(ErrorPathTest, UsefulErrorsForBadCalls) {
  Figure4Config config;
  config.num_r = 30;
  config.num_s = 10;
  std::shared_ptr<ERSchema> schema;
  auto db = MakeFigure4Database(Figure4M1(), config, &schema);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->InsertEntity("Nope", Value::Struct({})).code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*db)->InsertEntity("R", Value::Int64(3)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*db)->InsertEntity("R", Value::Struct({})).code(),
            StatusCode::kConstraintViolation);  // missing key
  EXPECT_EQ((*db)->GetEntity("R", {I(999999)}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*db)->UpdateAttribute("R", {I(1)}, "r_id", I(2)).code(),
            StatusCode::kInvalidArgument);  // key update
  EXPECT_EQ((*db)->UpdateAttribute("R", {I(1)}, "ghost", I(2)).code(),
            StatusCode::kAnalysisError);
  EXPECT_EQ((*db)->ScanEntity("R", {"ghost"}).status().code(),
            StatusCode::kAnalysisError);
  EXPECT_EQ((*db)->ScanRelationship("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*db)->LookupEntity("R", {I(1), I(2)}, {}).status().code(),
            StatusCode::kInvalidArgument);  // key arity
  // Weak entity without its owner.
  EXPECT_EQ((*db)->InsertEntity(
                     "S1", Value::Struct({{"s_id", I(424242)},
                                          {"s1_no", I(1)}}))
                .code(),
            StatusCode::kConstraintViolation);
}

// A rejected write changes nothing, whatever the mapping: every row it
// would write is validated before the first one is applied — including
// a subclass insert's superclass segment, the side-table rows of a
// multi-valued attribute, and a factorized pair side.
class RejectedWriteTest : public ::testing::TestWithParam<MappingSpec> {
 protected:
  void SetUp() override {
    Figure4Config config;
    config.num_r = 30;
    config.num_s = 10;
    auto db = MakeFigure4Database(GetParam(), config, &schema_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  size_t Count(const std::string& cls) {
    auto n = db_->CountEntities(cls);
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    return n.ok() ? *n : 0;
  }

  std::shared_ptr<ERSchema> schema_;
  std::unique_ptr<MappedDatabase> db_;
};

std::vector<MappingSpec> EveryMapping() {
  std::vector<MappingSpec> specs = Figure4AllMappings();
  specs.push_back(Figure4M6Pg());
  return specs;
}

std::string MappingName(const ::testing::TestParamInfo<MappingSpec>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Figure4, RejectedWriteTest,
                         ::testing::ValuesIn(EveryMapping()), MappingName);

TEST_P(RejectedWriteTest, RejectedSubclassInsertLeavesNoInstance) {
  size_t before = Count("R");
  Value bad = Value::Struct(
      {{"r_id", I(9001)}, {"r1_a1", Value::String("not an int")}});
  EXPECT_EQ(db_->InsertEntity("R1", bad).code(),
            StatusCode::kConstraintViolation);
  EXPECT_FALSE(db_->EntityExists("R", {I(9001)}).value());
  EXPECT_EQ(Count("R"), before);
  ASSERT_TRUE(db_->InsertEntity("R1", Value::Struct({{"r_id", I(9001)},
                                                    {"r1_a1", I(1)}}))
                  .ok());
  EXPECT_EQ(db_->SpecificClassOf("R", {I(9001)}).value(), "R1");
  EXPECT_EQ(Count("R"), before + 1);
}

TEST_P(RejectedWriteTest, RejectedMultiValuedElementLeavesNoInstance) {
  size_t before = Count("R");
  for (const Value& bad : {Value::Array({I(7), Value::String("x")}),
                           Value::Array({I(7), Value::Null()}), I(7)}) {
    Value entity = Value::Struct({{"r_id", I(9002)}, {"r_mv1", bad}});
    EXPECT_EQ(db_->InsertEntity("R", entity).code(),
              StatusCode::kConstraintViolation)
        << bad.ToString();
    EXPECT_FALSE(db_->EntityExists("R", {I(9002)}).value());
  }
  EXPECT_EQ(Count("R"), before);
  Value good = Value::Struct(
      {{"r_id", I(9002)}, {"r_mv1", Value::Array({I(8), I(7)})}});
  ASSERT_TRUE(db_->InsertEntity("R", good).ok());
  auto entity = db_->GetEntity("R", {I(9002)});
  ASSERT_TRUE(entity.ok()) << entity.status().ToString();
  EXPECT_EQ(Canonicalize(*entity->FindField("r_mv1")),
            Value::Array({I(7), I(8)}));
}

TEST_P(RejectedWriteTest, RejectedPairSideAndFoldedInsertsLeaveNothing) {
  std::string before = LogicalDump(db_.get());
  EXPECT_EQ(db_->InsertEntity(
                   "R2", Value::Struct({{"r_id", I(9003)},
                                        {"r2_a1", Value::String("x")}}))
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(db_->InsertEntity(
                   "S1", Value::Struct({{"s_id", I(1)},
                                        {"s1_no", I(77)},
                                        {"s1_a1", Value::String("x")}}))
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(LogicalDump(db_.get()), before);
  EXPECT_TRUE(db_->InsertEntity("R2", Value::Struct({{"r_id", I(9003)}})).ok());
  EXPECT_TRUE(
      db_->InsertEntity("S1", Value::Struct({{"s_id", I(1)}, {"s1_no", I(77)}}))
          .ok());
}

TEST_P(RejectedWriteTest, RejectedUpdatesKeepOldValues) {
  Value entity = Value::Struct({{"r_id", I(9004)},
                                {"r2_a1", I(5)},
                                {"r_mv1", Value::Array({I(1), I(2)})}});
  ASSERT_TRUE(db_->InsertEntity("R2", entity).ok());
  std::string before = LogicalDump(db_.get());
  EXPECT_EQ(db_->UpdateAttribute("R2", {I(9004)}, "r_mv1",
                                 Value::Array({I(7), Value::String("x")}))
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(db_->UpdateAttribute("R2", {I(9004)}, "r_mv1",
                                 Value::Array({I(7), Value::Null()}))
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(db_->UpdateAttribute("R2", {I(9004)}, "r2_a1", Value::String("x"))
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(LogicalDump(db_.get()), before);
  auto stored = db_->GetEntity("R", {I(9004)});
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(Canonicalize(*stored->FindField("r_mv1")),
            Value::Array({I(1), I(2)}));
}

// A bad access-plan request fails with the same code under every
// mapping: an unknown construct, an attribute not visible at the class, a
// scalar unnested, a key of the wrong arity, and a fused scan that the
// relationship's storage (or a side-table attribute) cannot answer.
using AccessPlanErrorTest = RejectedWriteTest;

INSTANTIATE_TEST_SUITE_P(Figure4, AccessPlanErrorTest,
                         ::testing::ValuesIn(EveryMapping()), MappingName);

TEST_P(AccessPlanErrorTest, SameCodeUnderEveryMapping) {
  MappedDatabase* db = db_.get();
  RelationshipStorage r2s1 = db->mapping().spec().relationship_storage(
      *db->schema().FindRelationshipSet("R2S1"));
  bool r2s1_joined = r2s1 == RelationshipStorage::kFactorized ||
                     r2s1 == RelationshipStorage::kMaterializedJoin;
  struct Case {
    std::string what;
    std::function<Result<OperatorPtr>()> plan;
    StatusCode code;
  };
  const std::vector<Case> cases = {
      {"scan of an unknown entity set",
       [&] { return db->ScanEntity("Nope", {}); }, StatusCode::kNotFound},
      {"lookup in an unknown entity set",
       [&] { return db->LookupEntity("Nope", {I(1)}, {}); },
       StatusCode::kNotFound},
      {"unnest of an unknown entity set",
       [&] { return db->ScanMultiValued("Nope", "r_mv1"); },
       StatusCode::kNotFound},
      {"scan of an unknown relationship set",
       [&] { return db->ScanRelationship("Nope"); }, StatusCode::kNotFound},
      {"fused scan of an unknown relationship set",
       [&] { return db->ScanRelationshipJoined("Nope", {}, {}); },
       StatusCode::kNotFound},
      {"subclass attribute at the superclass",
       [&] { return db->ScanEntity("R", {"r_a1", "r1_a1"}); },
       StatusCode::kAnalysisError},
      {"sibling attribute",
       [&] { return db->ScanEntity("R2", {"r1_a1"}); },
       StatusCode::kAnalysisError},
      {"owner attribute at the weak set",
       [&] { return db->ScanEntity("S1", {"s_a1"}); },
       StatusCode::kAnalysisError},
      {"lookup of an unknown attribute",
       [&] { return db->LookupEntity("R3", {I(1)}, {"r1_a1", "ghost"}); },
       StatusCode::kAnalysisError},
      {"unnest of an unknown attribute",
       [&] { return db->ScanMultiValued("R", "ghost"); },
       StatusCode::kAnalysisError},
      {"unnest of a scalar",
       [&] { return db->ScanMultiValued("R", "r_a1"); },
       StatusCode::kAnalysisError},
      {"unnest of an inherited scalar",
       [&] { return db->ScanMultiValued("R3", "r1_a1"); },
       StatusCode::kAnalysisError},
      {"unnest of a key",
       [&] { return db->ScanMultiValued("R", "r_id"); },
       StatusCode::kAnalysisError},
      {"lookup with too long a key",
       [&] { return db->LookupEntity("R", {I(1), I(2)}, {}); },
       StatusCode::kInvalidArgument},
      {"weak lookup with only the owner key",
       [&] { return db->LookupEntity("S1", {I(1)}, {"s1_a1"}); },
       StatusCode::kInvalidArgument},
      {"lookup with an empty key expression list",
       [&] { return db->LookupEntity("S2", std::vector<ExprPtr>{}, {}); },
       StatusCode::kInvalidArgument},
      {"fused scan of a join table",
       [&] { return db->ScanRelationshipJoined("RS", {"r_a1"}, {}); },
       StatusCode::kNotImplemented},
      {"fused scan of a foreign key",
       [&] { return db->ScanRelationshipJoined("R1R3", {}, {"r3_a1"}); },
       StatusCode::kNotImplemented},
      {"fused scan with a side-table multi-valued attribute",
       [&] { return db->ScanRelationshipJoined("R2S1", {"r_mv1"}, {}); },
       StatusCode::kNotImplemented},
      {"fused scan with an unknown attribute",
       [&] { return db->ScanRelationshipJoined("R2S1", {}, {"ghost"}); },
       r2s1_joined ? StatusCode::kAnalysisError
                   : StatusCode::kNotImplemented},
  };
  for (const Case& c : cases) {
    Result<OperatorPtr> plan = c.plan();
    EXPECT_EQ(plan.status().code(), c.code)
        << c.what << ": " << plan.status().ToString();
  }
}

TEST(WorkloadDeterminismTest, SameSeedSameData) {
  Figure4Config config;
  config.num_r = 80;
  config.num_s = 25;
  std::shared_ptr<ERSchema> s1, s2;
  auto a = MakeFigure4Database(Figure4M1(), config, &s1);
  auto b = MakeFigure4Database(Figure4M1(), config, &s2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ea = (*a)->GetEntity("R", {I(11)});
  auto eb = (*b)->GetEntity("R", {I(11)});
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
  EXPECT_EQ(ea->ToString(), eb->ToString());
  config.seed = 43;
  std::shared_ptr<ERSchema> s3;
  auto c = MakeFigure4Database(Figure4M1(), config, &s3);
  ASSERT_TRUE(c.ok());
  auto ec = (*c)->GetEntity("R", {I(11)});
  ASSERT_TRUE(ec.ok());
  EXPECT_NE(ea->ToString(), ec->ToString());
}

}  // namespace
}  // namespace erbium
