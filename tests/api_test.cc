// Tests for the entity-centric API / governance layer: JSON rendering,
// expanded entity retrieval, PII tagging, subject export and erasure;
// a rejected INSERT through an attached StatementRunner.

#include <gtest/gtest.h>

#include <filesystem>

#include "api/entity_store.h"
#include "api/statement_runner.h"
#include "er/ddl_parser.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

TEST(JsonTest, RendersAllKinds) {
  Value v = Value::Struct(
      {{"i", Value::Int64(-5)},
       {"f", Value::Float64(1.5)},
       {"b", Value::Bool(true)},
       {"n", Value::Null()},
       {"s", Value::String("a\"b\\c\nd")},
       {"arr", Value::Array({Value::Int64(1), Value::String("x")})}});
  EXPECT_EQ(ToJson(v),
            "{\"i\":-5,\"f\":1.5,\"b\":true,\"n\":null,"
            "\"s\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,\"x\"]}");
}

class EntityStoreTest : public ::testing::TestWithParam<MappingSpec> {
 protected:
  void SetUp() override {
    Figure4Config config;
    config.num_r = 120;
    config.num_s = 40;
    auto db = MakeFigure4Database(GetParam(), config, &schema_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    store_ = std::make_unique<EntityStore>(db_.get());
  }

  std::shared_ptr<ERSchema> schema_;
  std::unique_ptr<MappedDatabase> db_;
  std::unique_ptr<EntityStore> store_;
};

INSTANTIATE_TEST_SUITE_P(
    Figure4, EntityStoreTest,
    ::testing::Values(Figure4M1(), Figure4M5(), Figure4M6()),
    [](const ::testing::TestParamInfo<MappingSpec>& info) {
      return info.param.name;
    });

TEST_P(EntityStoreTest, GetExpandedIncludesWeakAndRelationships) {
  // Find an S that owns at least one S1.
  auto s1_scan = db_->ScanEntity("S1", {});
  ASSERT_TRUE(s1_scan.ok());
  auto s1_rows = CollectRows(s1_scan->get());
  ASSERT_TRUE(s1_rows.ok());
  ASSERT_FALSE(s1_rows->empty());
  Value s_id = s1_rows->front()[0];

  auto expanded = store_->GetExpanded("S", {s_id});
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  const Value* nested_s1 = expanded->FindField("S1");
  ASSERT_NE(nested_s1, nullptr);
  ASSERT_EQ(nested_s1->kind(), TypeKind::kArray);
  EXPECT_FALSE(nested_s1->array().empty());
  // Relationship partners listed under "RS.<role>".
  const Value* rs = expanded->FindField("RS.R");
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->kind(), TypeKind::kArray);
  // JSON rendering is well-formed-ish.
  auto json = store_->GetJson("S", {s_id});
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->front(), '{');
  EXPECT_NE(json->find("\"S1\":["), std::string::npos);
}

TEST_P(EntityStoreTest, SubjectEraseRemovesAllTraces) {
  Value s_id = Value::Int64(3);
  ASSERT_TRUE(db_->EntityExists("S", {s_id}).value());
  ASSERT_TRUE(store_->EraseSubject("S", {s_id}).ok());
  EXPECT_FALSE(db_->EntityExists("S", {s_id}).value());
  // No relationship edge survives.
  auto rs = db_->ScanRelationship("RS");
  ASSERT_TRUE(rs.ok());
  auto rows = CollectRows(rs->get());
  ASSERT_TRUE(rows.ok());
  for (const Row& row : *rows) {
    EXPECT_NE(row[1], s_id);
  }
}

TEST(EntityStorePiiTest, TaggingExportAndRedaction) {
  // A small schema with PII tags.
  ERSchema schema;
  ASSERT_TRUE(DdlParser::Execute(R"(
    CREATE ENTITY Person (
      id INT KEY,
      name STRING PII,
      email STRING PII,
      favorite_color STRING
    );)",
                                 &schema)
                  .ok());
  auto db = MappedDatabase::Create(&schema, MappingSpec::Normalized());
  ASSERT_TRUE(db.ok());
  EntityStore store(db->get());
  ASSERT_TRUE(store
                  .Put("Person",
                       Value::Struct({{"id", Value::Int64(1)},
                                      {"name", Value::String("Ada")},
                                      {"email", Value::String("a@b.c")},
                                      {"favorite_color",
                                       Value::String("teal")}}))
                  .ok());
  auto pii = store.PiiAttributes("Person");
  ASSERT_TRUE(pii.ok());
  EXPECT_EQ(*pii, (std::vector<std::string>{"name", "email"}));

  auto exported = store.ExportSubject("Person", {Value::Int64(1)});
  ASSERT_TRUE(exported.ok());
  ASSERT_NE(exported->FindField("subject"), nullptr);
  ASSERT_NE(exported->FindField("pii_attributes"), nullptr);
  EXPECT_EQ(exported->FindField("pii_attributes")->array().size(), 2u);

  auto entity = store.Get("Person", {Value::Int64(1)});
  ASSERT_TRUE(entity.ok());
  auto redacted = store.Redact("Person", *entity);
  ASSERT_TRUE(redacted.ok());
  EXPECT_TRUE(redacted->FindField("name")->is_null());
  EXPECT_TRUE(redacted->FindField("email")->is_null());
  EXPECT_EQ(*redacted->FindField("favorite_color"), Value::String("teal"));
}

// Classification must depend only on the statement's leading keyword,
// never on its spelling: leading whitespace (spaces, tabs, newlines) and
// letter case classify identically to the canonical form. A
// misclassified read would take the wrong lock mode — too strong costs
// concurrency, too weak races structural statements.
TEST(StatementClassifyTest, WhitespaceAndCaseInsensitive) {
  using Runner = api::StatementRunner;
  using Class = Runner::StatementClass;
  struct Case {
    const char* statement;
    Class expected;
  };
  const Case kCases[] = {
      {"SELECT r_id FROM R", Class::kRead},
      {"select r_id from R", Class::kRead},
      {"  \t SELECT r_id FROM R", Class::kRead},
      {"\n\nselect r_id from R", Class::kRead},
      {"\r\n  SeLeCt 1", Class::kRead},
      {"EXPLAIN SELECT 1", Class::kRead},
      {"\texplain analyze select 1", Class::kRead},
      {"SHOW TABLES", Class::kRead},
      {" show sessions", Class::kRead},
      {"TRACE SELECT 1", Class::kRead},
      {"ADVISE LIMIT 3", Class::kRead},
      {"\n advise", Class::kRead},
      {"EXPORT WORKLOAD INTO 'w.json'", Class::kRead},
      {"INSERT R (r_id = 1)", Class::kCrud},
      {"\n\tinsert R (r_id = 1)", Class::kCrud},
      {"LOAD WORKLOAD FROM 'w.json'", Class::kCrud},
      {"CHECKPOINT", Class::kCrud},
      {"  checkpoint", Class::kCrud},
      {"CREATE ENTITY Person (id INT KEY)", Class::kExclusive},
      {"\ncreate entity P (id INT KEY)", Class::kExclusive},
      {"REMAP m3", Class::kExclusive},
      {"ATTACH DATABASE '/tmp/x'", Class::kExclusive},
      {"  attach database '/tmp/x'", Class::kExclusive},
      {"DROP TABLE R", Class::kExclusive},  // unknown: exclusive is safe
      {"", Class::kExclusive},
      {"   \n\t ", Class::kExclusive},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(Runner::Classify(c.statement), c.expected)
        << "statement: \"" << c.statement << "\"";
  }
}

// A rejected INSERT changes nothing in memory and is never logged, so
// the live database and a reopened one agree on the count, even for a
// subclass insert that fails after its superclass row was built.
TEST(AttachedRunnerTest, RejectedInsertLeavesCountUnchangedAcrossReopen) {
  std::string dir = ::testing::TempDir() + "/erbium_api_rejected_insert";
  std::filesystem::remove_all(dir);
  auto count = [](api::StatementRunner* runner) -> int64_t {
    auto result = runner->Execute("SELECT count(*) AS n FROM R");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->result.rows.at(0).at(0).as_int64() : -1;
  };
  {
    api::StatementRunner::Options options;
    options.attach_dir = dir;
    auto runner = api::StatementRunner::Create(std::move(options));
    ASSERT_TRUE(runner.ok()) << runner.status().ToString();
    for (const char* ddl : {"CREATE ENTITY R ( r_id INT KEY, r_a1 INT )",
                            "CREATE ENTITY R1 EXTENDS R ( r1_a1 INT )"}) {
      auto created = (*runner)->Execute(ddl);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
    }
    ASSERT_TRUE((*runner)->Execute("INSERT R (r_id = 1, r_a1 = 5)").ok());
    EXPECT_FALSE((*runner)->Execute("INSERT R1 (r_id = 2, r1_a1 = 'x')").ok());
    EXPECT_EQ(count(runner->get()), 1);
  }
  api::StatementRunner::Options reopen;
  reopen.attach_dir = dir;
  auto runner = api::StatementRunner::Create(std::move(reopen));
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  EXPECT_EQ(count(runner->get()), 1);
  ASSERT_TRUE((*runner)->Execute("INSERT R1 (r_id = 2, r1_a1 = 3)").ok());
  EXPECT_EQ(count(runner->get()), 2);
}

}  // namespace
}  // namespace erbium
