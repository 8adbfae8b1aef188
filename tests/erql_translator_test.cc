// Translator-focused tests: semantic errors, plan-shape assertions
// (pushdown, point lookups, fused joined scans, the unnest fast path),
// and smaller behaviours not covered by the cross-mapping equivalence
// suite.

#include <gtest/gtest.h>

#include "erql/query_engine.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

class TranslatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Figure4Config config;
    config.num_r = 150;
    config.num_s = 50;
    auto db = MakeFigure4Database(Figure4M1(), config, &schema_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  Status CompileError(const std::string& query) {
    auto compiled = erql::QueryEngine::Compile(db_.get(), query);
    EXPECT_FALSE(compiled.ok()) << "expected failure: " << query;
    return compiled.ok() ? Status::OK() : compiled.status();
  }

  std::string Plan(const std::string& query) {
    auto compiled = erql::QueryEngine::Compile(db_.get(), query);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    return compiled.ok() ? PrintPlan(*compiled->plan) : "";
  }

  std::shared_ptr<ERSchema> schema_;
  std::unique_ptr<MappedDatabase> db_;
};

TEST_F(TranslatorTest, SemanticErrors) {
  EXPECT_EQ(CompileError("SELECT x FROM Nowhere").code(),
            StatusCode::kAnalysisError);
  EXPECT_EQ(CompileError("SELECT no_such_attr FROM R").code(),
            StatusCode::kAnalysisError);
  // r1_a1 is not visible on the sibling subclass R2.
  EXPECT_EQ(CompileError("SELECT r1_a1 FROM R2").code(),
            StatusCode::kAnalysisError);
  // Ambiguous bare column across two aliases.
  EXPECT_EQ(CompileError("SELECT r_a1 FROM R a JOIN R b ON a.r_id = b.r_id")
                .code(),
            StatusCode::kAnalysisError);
  // Unknown relationship.
  EXPECT_EQ(CompileError("SELECT 1 FROM R r JOIN S s ON no_such_rel").code(),
            StatusCode::kAnalysisError);
  // Entity not participating in the relationship.
  EXPECT_EQ(CompileError("SELECT 1 FROM S s JOIN S2 x ON R2S1").code(),
            StatusCode::kAnalysisError);
  // Aggregate nested in an expression.
  EXPECT_EQ(CompileError("SELECT count(*) + 1 FROM R").code(),
            StatusCode::kAnalysisError);
  // Non-grouped select item with explicit GROUP BY.
  EXPECT_EQ(CompileError(
                "SELECT r_a1, count(*) AS n FROM R GROUP BY r_a4")
                .code(),
            StatusCode::kAnalysisError);
  // ORDER BY referencing a non-output column.
  EXPECT_EQ(CompileError("SELECT r_id FROM R ORDER BY r_a1").code(),
            StatusCode::kAnalysisError);
  // Duplicate alias.
  EXPECT_EQ(CompileError("SELECT 1 FROM R x JOIN S x ON RS").code(),
            StatusCode::kAnalysisError);
}

TEST_F(TranslatorTest, PredicatePushdownReachesBaseScan) {
  std::string plan = Plan(
      "SELECT r.r_id, s.s_id FROM R r JOIN S s ON RS "
      "WHERE r.r_a1 < 100 AND s.s_a1 > 50 AND r.r_id != s.s_id");
  // Single-alias conjuncts sit below the joins; the cross-alias one on
  // top.
  size_t top_filter = plan.find("Filter((r.r_id != s.s_id))");
  ASSERT_NE(top_filter, std::string::npos) << plan;
  size_t r_filter = plan.find("Filter((r.r_a1 < 100))");
  size_t s_filter = plan.find("Filter((s.s_a1 > 50))");
  ASSERT_NE(r_filter, std::string::npos) << plan;
  ASSERT_NE(s_filter, std::string::npos) << plan;
  EXPECT_LT(top_filter, r_filter);
  EXPECT_LT(top_filter, s_filter);
}

TEST_F(TranslatorTest, FullKeyEqualityBecomesIndexLookup) {
  std::string plan = Plan("SELECT r_a1 FROM R WHERE r_id = 42");
  EXPECT_NE(plan.find("IndexLookup(R)"), std::string::npos) << plan;
  // Composite weak-entity key requires both parts.
  plan = Plan("SELECT s1_a1 FROM S1 WHERE s_id = 3 AND s1_no = 1");
  EXPECT_NE(plan.find("IndexLookup(S1)"), std::string::npos) << plan;
  plan = Plan("SELECT s1_a1 FROM S1 WHERE s_id = 3");
  EXPECT_EQ(plan.find("IndexLookup"), std::string::npos) << plan;
}

TEST_F(TranslatorTest, UnnestFastPathUsesSideTable) {
  std::string plan = Plan("SELECT r_id, unnest(r_mv1) AS v FROM R");
  // Under M1 the side table IS the unnested stream: no join, no unnest.
  EXPECT_NE(plan.find("SeqScan(R_r_mv1)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Unnest"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
  // With a non-key attribute in the select list the fast path must not
  // fire (r_a1 is not in the side table).
  plan = Plan("SELECT r_id, r_a1, unnest(r_mv1) AS v FROM R");
  EXPECT_NE(plan.find("Unnest"), std::string::npos) << plan;
}

TEST_F(TranslatorTest, RoleScoringPicksRightSides) {
  // R1R3 is a self-ish relationship inside the hierarchy; exact entity
  // matches must win over hierarchy-related ones.
  auto result = erql::QueryEngine::Execute(
      db_.get(),
      "SELECT p.r_id AS parent, c.r_id AS child FROM R1 p JOIN R3 c "
      "ON R1R3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->rows.empty());
  // Reversed declaration order must produce the same pairs.
  auto reversed = erql::QueryEngine::Execute(
      db_.get(),
      "SELECT p.r_id AS parent, c.r_id AS child FROM R3 c JOIN R1 p "
      "ON R1R3");
  ASSERT_TRUE(reversed.ok()) << reversed.status().ToString();
  EXPECT_EQ(result->ToCanonicalString(), reversed->ToCanonicalString());
}

TEST_F(TranslatorTest, RelationshipAttributesResolve) {
  auto result = erql::QueryEngine::Execute(
      db_.get(),
      "SELECT r.r_id, rs_a1 FROM R r JOIN S s ON RS WHERE rs_a1 < 50");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const Row& row : result->rows) {
    EXPECT_LT(row[1].as_int64(), 50);
  }
  // Qualified by relationship name too.
  auto qualified = erql::QueryEngine::Execute(
      db_.get(),
      "SELECT r.r_id, RS.rs_a1 AS a FROM R r JOIN S s ON RS "
      "WHERE RS.rs_a1 < 50");
  ASSERT_TRUE(qualified.ok()) << qualified.status().ToString();
  EXPECT_EQ(result->rows.size(), qualified->rows.size());
}

TEST_F(TranslatorTest, EmptyResultsAndLimits) {
  auto result = erql::QueryEngine::Execute(
      db_.get(), "SELECT r_id FROM R WHERE r_id = -5");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
  // Global aggregate over the empty selection still yields one row.
  result = erql::QueryEngine::Execute(
      db_.get(), "SELECT count(*) AS n FROM R WHERE r_id = -5");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Int64(0));
  result = erql::QueryEngine::Execute(db_.get(),
                                      "SELECT r_id FROM R LIMIT 0");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

class FusedJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Figure4Config config;
    config.num_r = 150;
    config.num_s = 50;
    auto db = MakeFigure4Database(Figure4M6(), config, &schema_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    auto pg = MakeFigure4Database(Figure4M6Pg(), config, &pg_schema_);
    ASSERT_TRUE(pg.ok()) << pg.status().ToString();
    pg_db_ = std::move(pg).value();
  }

  std::shared_ptr<ERSchema> schema_;
  std::unique_ptr<MappedDatabase> db_;
  std::shared_ptr<ERSchema> pg_schema_;
  std::unique_ptr<MappedDatabase> pg_db_;
};

TEST_F(FusedJoinTest, FactorizedJoinUsesFusedScan) {
  auto compiled = erql::QueryEngine::Compile(
      db_.get(),
      "SELECT r.r_id, r.r2_a1, s1.s1_a1 FROM R2 r JOIN S1 s1 ON R2S1");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::string plan = PrintPlan(*compiled->plan);
  EXPECT_NE(plan.find("FactorizedJoinScan"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
}

TEST_F(FusedJoinTest, MaterializedJoinScansWideTableOnce) {
  auto compiled = erql::QueryEngine::Compile(
      pg_db_.get(),
      "SELECT r.r_id, r.r2_a1, s1.s1_a1 FROM R2 r JOIN S1 s1 ON R2S1");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::string plan = PrintPlan(*compiled->plan);
  // One scan of the joined table, no runtime join, no distinct.
  EXPECT_NE(plan.find("SeqScan(R2S1_joined)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Distinct"), std::string::npos) << plan;
}

TEST_F(FusedJoinTest, FusedAndGenericAgree) {
  // The fused path must be a pure optimization: results equal the
  // generic composition on the normalized mapping.
  Figure4Config config;
  config.num_r = 150;
  config.num_s = 50;
  std::shared_ptr<ERSchema> m1_schema;
  auto m1 = MakeFigure4Database(Figure4M1(), config, &m1_schema);
  ASSERT_TRUE(m1.ok());
  const char* query =
      "SELECT r.r_id, r.r2_a1, r.r_a1, s1.s1_a1 FROM R2 r JOIN S1 s1 ON "
      "R2S1 WHERE r.r2_a1 < 800";
  auto fused = erql::QueryEngine::Execute(db_.get(), query);
  auto pg = erql::QueryEngine::Execute(pg_db_.get(), query);
  auto generic = erql::QueryEngine::Execute(m1->get(), query);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_TRUE(pg.ok()) << pg.status().ToString();
  ASSERT_TRUE(generic.ok()) << generic.status().ToString();
  EXPECT_EQ(fused->ToCanonicalString(), generic->ToCanonicalString());
  EXPECT_EQ(pg->ToCanonicalString(), generic->ToCanonicalString());
}

}  // namespace
}  // namespace erbium
