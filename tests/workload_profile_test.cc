// Tests for the live workload profiler: shape normalization, capture
// under concurrency, the JSON snapshot round trip, the engine
// and statement-runner feeds (SHOW WORKLOAD / EXPORT / LOAD / ADVISE),
// and the parity of ADVISE with a hand-written advisor workload.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/statement_runner.h"
#include "erql/plan_cache.h"
#include "erql/query_engine.h"
#include "mapping/advisor.h"
#include "mini_json.h"
#include "obs/workload_profile.h"
#include "workload/figure4.h"

namespace erbium {
namespace obs {
namespace {

StatementFootprint PointLookupFootprint() {
  StatementFootprint footprint;
  footprint.shape = "select r_a1 from r where r_id = ?";
  footprint.entities.push_back({"R", EntityPath::kProbe});
  footprint.attributes.push_back({"R", "r_a1", /*predicate=*/false});
  footprint.attributes.push_back({"R", "r_id", /*predicate=*/true});
  return footprint;
}

// ---------------------------------------------------------------------
// Shape normalization.

TEST(NormalizeShapeTest, StripsLiteralsAndLowercasesIdentifiers) {
  EXPECT_EQ(NormalizeShape("SELECT r_id FROM R WHERE r_id = 42"),
            "select r_id from r where r_id = ?");
  EXPECT_EQ(NormalizeShape("SELECT r_a3 FROM R WHERE r_a3 = 'abc'"),
            "select r_a3 from r where r_a3 = ?");
  EXPECT_EQ(NormalizeShape("SELECT r_a2 FROM R WHERE r_a2 < 0.5"),
            "select r_a2 from r where r_a2 < ?");
}

TEST(NormalizeShapeTest, CollapsesWhitespaceAndTrailingSemicolon) {
  EXPECT_EQ(NormalizeShape("  SELECT   r_id\n\tFROM  R ;  "),
            "select r_id from r");
  // Two statements differing only in literals and spacing share a shape.
  EXPECT_EQ(NormalizeShape("SELECT x FROM R WHERE r_id=1"),
            NormalizeShape("select  X  from  r  where R_ID = 999 ;"));
}

TEST(NormalizeShapeTest, UntokenizableTextFallsBackToWhitespaceCollapse) {
  // '#' is not a token in the lexer; the profiler must still keep the
  // statement rather than dropping it.
  std::string shape = NormalizeShape("  weird   # text  ; ");
  EXPECT_EQ(shape, "weird # text");
}

// ---------------------------------------------------------------------
// Capture into a private profile.

TEST(WorkloadProfileTest, RecordsFootprintAndShapeCounts) {
  WorkloadProfile profile(32);
  StatementFootprint footprint = PointLookupFootprint();
  profile.RecordStatement(&footprint, "select",
                          "SELECT r_a1 FROM R WHERE r_id = 7", 1000);
  profile.RecordStatement(&footprint, "select",
                          "SELECT r_a1 FROM R WHERE r_id = 8", 3000);

  WorkloadSnapshot snapshot = profile.Snapshot();
  EXPECT_EQ(snapshot.statements, 2u);
  ASSERT_EQ(snapshot.entities.count("R"), 1u);
  EXPECT_EQ(snapshot.entities.at("R").probes, 2u);
  EXPECT_EQ(snapshot.entities.at("R").scans, 0u);
  EXPECT_EQ(snapshot.attributes.at("R.r_a1").projections, 2u);
  EXPECT_EQ(snapshot.attributes.at("R.r_id").predicates, 2u);
  ASSERT_EQ(snapshot.shapes.size(), 1u);
  EXPECT_EQ(snapshot.shapes[0].shape, footprint.shape);
  EXPECT_EQ(snapshot.shapes[0].count, 2u);
  EXPECT_EQ(snapshot.shapes[0].total_wall_ns, 4000u);
  EXPECT_EQ(snapshot.shapes[0].kind, "select");
  // The sample is the first concrete statement seen for the shape.
  EXPECT_EQ(snapshot.shapes[0].sample, "SELECT r_a1 FROM R WHERE r_id = 7");
}

TEST(WorkloadProfileTest, OnlyPlanExecutingKindsAreProfiled) {
  WorkloadProfile profile(32);
  StatementFootprint footprint = PointLookupFootprint();
  for (const char* kind : {"show", "export", "load", "advise", "checkpoint",
                           "attach", "invalid", "explain"}) {
    profile.RecordStatement(&footprint, kind, "SHOW WORKLOAD", 500);
  }
  EXPECT_EQ(profile.Snapshot().statements, 0u);
  EXPECT_TRUE(profile.Snapshot().shapes.empty());

  for (const char* kind : {"select", "explain_analyze", "trace"}) {
    profile.RecordStatement(&footprint, kind, "SELECT 1", 500);
  }
  EXPECT_EQ(profile.Snapshot().statements, 3u);
}

TEST(WorkloadProfileTest, CrudFeedAndDisableSwitch) {
  WorkloadProfile profile(32);
  profile.RecordEntityCrud("R", CrudKind::kInsert);
  profile.RecordEntityCrud("R", CrudKind::kDelete);
  profile.RecordEntityCrud("R", CrudKind::kUpdate);
  profile.RecordRelationshipCrud("RS", CrudKind::kInsert);
  profile.RecordRelationshipCrud("RS", CrudKind::kDelete);

  WorkloadSnapshot snapshot = profile.Snapshot();
  EXPECT_EQ(snapshot.entities.at("R").inserts, 1u);
  EXPECT_EQ(snapshot.entities.at("R").deletes, 1u);
  EXPECT_EQ(snapshot.entities.at("R").updates, 1u);
  EXPECT_EQ(snapshot.relationships.at("RS").inserts, 1u);
  EXPECT_EQ(snapshot.relationships.at("RS").deletes, 1u);

  profile.set_enabled(false);
  profile.RecordEntityCrud("R", CrudKind::kInsert);
  StatementFootprint footprint = PointLookupFootprint();
  profile.RecordStatement(&footprint, "select", "SELECT 1", 100);
  EXPECT_EQ(profile.Snapshot().entities.at("R").inserts, 1u);
  EXPECT_EQ(profile.Snapshot().statements, 0u);
}

TEST(WorkloadProfileTest, StatementAndCrudFeedsLandInOneSnapshot) {
  WorkloadProfile profile(32);
  StatementFootprint footprint = PointLookupFootprint();
  profile.RecordStatement(&footprint, "select",
                          "SELECT r_a1 FROM R WHERE r_id = 7", 1000);
  profile.RecordEntityCrud("S", CrudKind::kInsert);

  WorkloadSnapshot snapshot = profile.Snapshot();
  EXPECT_EQ(snapshot.statements, 1u);
  EXPECT_EQ(snapshot.entities.at("R").probes, 1u);
  EXPECT_EQ(snapshot.entities.at("S").inserts, 1u);
  EXPECT_EQ(snapshot.attributes.at("R.r_id").predicates, 1u);
  EXPECT_EQ(snapshot.attributes.at("R.r_a1").projections, 1u);
  EXPECT_EQ(snapshot.shapes.size(), 1u);
}

TEST(WorkloadProfileTest, ShapeRingEvictsLightestKeepsHeaviest) {
  WorkloadProfile profile(8);
  // One heavy hitter, then a stream of one-off light shapes.
  profile.RecordStatement(nullptr, "select", "SELECT heavy FROM R",
                          1'000'000'000);
  for (int i = 0; i < 64; ++i) {
    profile.RecordStatement(
        nullptr, "select",
        "SELECT light" + std::to_string(i) + " FROM R", 10);
  }
  WorkloadSnapshot snapshot = profile.Snapshot();
  EXPECT_LE(snapshot.shapes.size(), 8u);
  ASSERT_FALSE(snapshot.shapes.empty());
  // Weight-ordered: the heavy shape survived eviction and leads.
  EXPECT_EQ(snapshot.shapes[0].shape, "select heavy from r");
  EXPECT_EQ(snapshot.statements, 65u);
}

TEST(WorkloadProfileTest, CapacityHoldsThatManyDistinctShapes) {
  // Capacity bounds the whole table: exactly `capacity` distinct shapes
  // of equal weight must all be kept, however their names hash.
  constexpr size_t kCapacity = WorkloadProfile::kDefaultShapeCapacity;
  WorkloadProfile profile(kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    profile.RecordStatement(
        nullptr, "select", "SELECT c" + std::to_string(i) + " FROM R", 100);
  }
  WorkloadSnapshot snapshot = profile.Snapshot();
  EXPECT_EQ(snapshot.shapes.size(), kCapacity);
  std::set<std::string> shapes;
  for (const WorkloadSnapshot::Shape& shape : snapshot.shapes) {
    shapes.insert(shape.shape);
  }
  for (size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(shapes.count("select c" + std::to_string(i) + " from r"), 1u)
        << "shape " << i << " was dropped";
  }
  // One more equal-weight newcomer is not heavier than any resident.
  profile.RecordStatement(nullptr, "select", "SELECT extra FROM R", 100);
  EXPECT_EQ(profile.Snapshot().shapes.size(), kCapacity);
  EXPECT_EQ(profile.Snapshot().statements, kCapacity + 1);
}

TEST(WorkloadProfileTest, ClearForgetsEverything) {
  WorkloadProfile profile(32);
  StatementFootprint footprint = PointLookupFootprint();
  profile.RecordStatement(&footprint, "select", "SELECT 1 FROM R", 100);
  profile.RecordEntityCrud("R", CrudKind::kInsert);
  profile.Clear();
  WorkloadSnapshot snapshot = profile.Snapshot();
  EXPECT_EQ(snapshot.statements, 0u);
  EXPECT_TRUE(snapshot.entities.empty());
  EXPECT_TRUE(snapshot.shapes.empty());
}

// ---------------------------------------------------------------------
// Concurrency: the capture hammer (run under TSan in CI).

TEST(WorkloadProfileTest, ConcurrentCaptureHammer) {
  WorkloadProfile profile(64);
  constexpr int kThreads = 8;
  constexpr int kIterations = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&profile, t] {
      StatementFootprint footprint;
      // Overlapping names across threads force shard contention.
      footprint.entities.push_back({"R", EntityPath::kScan});
      footprint.entities.push_back({"S" + std::to_string(t % 3),
                                    EntityPath::kProbe});
      footprint.relationships.push_back({"RS", false});
      footprint.attributes.push_back({"R", "r_a1", true});
      footprint.shape =
          "select ? from r shape" + std::to_string(t % 4);
      for (int i = 0; i < kIterations; ++i) {
        profile.RecordStatement(&footprint, "select", "SELECT hammer", 10);
        profile.RecordEntityCrud("R", CrudKind::kInsert);
        if (i % 64 == 0) profile.Snapshot();  // readers race writers
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  WorkloadSnapshot snapshot = profile.Snapshot();
  const uint64_t total = kThreads * kIterations;
  EXPECT_EQ(snapshot.statements, total);
  EXPECT_EQ(snapshot.entities.at("R").scans, total);
  EXPECT_EQ(snapshot.entities.at("R").inserts, total);
  EXPECT_EQ(snapshot.relationships.at("RS").joins, total);
  EXPECT_EQ(snapshot.attributes.at("R.r_a1").predicates, total);
  uint64_t probes = 0;
  for (int s = 0; s < 3; ++s) {
    probes += snapshot.entities.at("S" + std::to_string(s)).probes;
  }
  EXPECT_EQ(probes, total);
  uint64_t shape_count = 0;
  for (const WorkloadSnapshot::Shape& shape : snapshot.shapes) {
    shape_count += shape.count;
  }
  EXPECT_EQ(shape_count, total);
}

// ---------------------------------------------------------------------
// JSON snapshot: deterministic, parseable, byte-identical round trip.

TEST(WorkloadProfileTest, SnapshotJsonRoundTripsByteIdentically) {
  WorkloadProfile profile(32);
  StatementFootprint footprint = PointLookupFootprint();
  profile.RecordStatement(&footprint, "select",
                          "SELECT r_a1 FROM R WHERE r_id = 7", 1200);
  // A shape whose sample carries every escape class the exporter knows.
  profile.RecordStatement(nullptr, "select",
                          "SELECT r_a3 FROM R WHERE r_a3 = 'q\"uo\\te\n'",
                          900);
  profile.RecordEntityCrud("S", CrudKind::kInsert);
  profile.RecordRelationshipCrud("RS", CrudKind::kDelete);

  std::string exported = profile.ToJson();

  // mini_json (the generic test-side parser) accepts the document.
  testjson::Node root;
  std::string error;
  ASSERT_TRUE(testjson::ParseJson(exported, &root, &error)) << error << "\n"
                                                            << exported;
  EXPECT_EQ(root.Find("version")->number, 1.0);
  EXPECT_EQ(root.Find("statements")->number, 2.0);
  ASSERT_NE(root.Find("entities")->Find("R"), nullptr);
  EXPECT_EQ(root.Find("shapes")->elements.size(), 2u);

  // Load into a fresh profile; re-export must be byte-identical.
  WorkloadProfile restored(32);
  ASSERT_TRUE(restored.LoadJson(exported).ok());
  EXPECT_EQ(restored.ToJson(), exported);

  // And loading over existing contents replaces them.
  restored.RecordEntityCrud("Zzz", CrudKind::kInsert);
  ASSERT_TRUE(restored.LoadJson(exported).ok());
  EXPECT_EQ(restored.ToJson(), exported);
}

TEST(WorkloadProfileTest, LoadJsonRejectsMalformedSnapshots) {
  WorkloadProfile profile(8);
  EXPECT_FALSE(profile.LoadJson("").ok());
  EXPECT_FALSE(profile.LoadJson("{}").ok());
  EXPECT_FALSE(profile.LoadJson("not json").ok());
  // Wrong version.
  EXPECT_FALSE(profile.LoadJson("{\"version\": 2}").ok());
  // Trailing garbage after a valid document.
  std::string valid = WorkloadProfile(8).ToJson();
  EXPECT_TRUE(profile.LoadJson(valid).ok());
  EXPECT_FALSE(profile.LoadJson(valid + "x").ok());
  // More shapes than this profile can hold.
  WorkloadProfile big(64);
  for (int i = 0; i < 32; ++i) {
    big.RecordStatement(nullptr, "select",
                        "SELECT c" + std::to_string(i) + " FROM R", 100);
  }
  ASSERT_GT(big.Snapshot().shapes.size(), 8u);
  EXPECT_FALSE(profile.LoadJson(big.ToJson()).ok());
}

// ---------------------------------------------------------------------
// The engine feed: footprints derived by the translator, recorded by
// QueryEngine::Execute, replayed on plan-cache hits.

class WorkloadEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Figure4Config config;
    config.num_r = 200;
    config.num_s = 60;
    auto db = MakeFigure4Database(Figure4M1(), config, &schema_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    WorkloadProfile::Global().Clear();
    WorkloadProfile::Global().set_enabled(true);
  }

  std::shared_ptr<ERSchema> schema_;
  std::unique_ptr<MappedDatabase> db_;
};

TEST_F(WorkloadEngineTest, ExecuteRecordsEntityPathsAndAttributes) {
  auto run = [this](const std::string& text) {
    auto result = erql::QueryEngine::Execute(db_.get(), text);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  };
  run("SELECT r_id, r_a1 FROM R");                   // full scan
  run("SELECT r_a1 FROM R WHERE r_id = 42");         // index probe
  run("SELECT r.r_id, s.s_id FROM R r JOIN S s ON RS");  // join

  WorkloadSnapshot snapshot = WorkloadProfile::Global().Snapshot();
  EXPECT_EQ(snapshot.statements, 3u);
  ASSERT_EQ(snapshot.entities.count("R"), 1u);
  EXPECT_GE(snapshot.entities.at("R").scans, 2u);   // plain scan + join base
  EXPECT_EQ(snapshot.entities.at("R").probes, 1u);  // the point lookup
  EXPECT_GE(snapshot.entities.at("S").join_sides, 1u);
  ASSERT_EQ(snapshot.relationships.count("RS"), 1u);
  EXPECT_GE(snapshot.relationships.at("RS").joins, 1u);
  EXPECT_GE(snapshot.attributes.at("R.r_id").projections, 1u);
  EXPECT_GE(snapshot.attributes.at("R.r_id").predicates, 1u);
  EXPECT_EQ(snapshot.shapes.size(), 3u);
  // Shapes carry engine-measured wall time as their weight.
  for (const WorkloadSnapshot::Shape& shape : snapshot.shapes) {
    EXPECT_GT(shape.total_wall_ns, 0u) << shape.shape;
    EXPECT_EQ(shape.kind, "select");
  }
}

TEST_F(WorkloadEngineTest, PlanCacheHitsStillRecordFootprints) {
  erql::PlanCache cache(16);
  const std::string text = "SELECT r_a1 FROM R WHERE r_id = 42";
  for (int i = 0; i < 3; ++i) {
    auto result = erql::QueryEngine::Execute(
        db_.get(), text, ExecOptions::Default(), &cache, /*generation=*/1);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  WorkloadSnapshot snapshot = WorkloadProfile::Global().Snapshot();
  EXPECT_EQ(snapshot.statements, 3u);
  // The cached executions replay the same shared footprint.
  EXPECT_EQ(snapshot.entities.at("R").probes, 3u);
  ASSERT_EQ(snapshot.shapes.size(), 1u);
  EXPECT_EQ(snapshot.shapes[0].count, 3u);
}

TEST_F(WorkloadEngineTest, ShowWorkloadRendersAndDoesNotPerturb) {
  auto seed = erql::QueryEngine::Execute(db_.get(),
                                         "SELECT r_id FROM R WHERE r_id = 1");
  ASSERT_TRUE(seed.ok());
  std::string before = WorkloadProfile::Global().ToJson();

  auto shown = erql::QueryEngine::Execute(db_.get(), "SHOW WORKLOAD LIMIT 5");
  ASSERT_TRUE(shown.ok()) << shown.status().ToString();
  ASSERT_EQ(shown->columns.size(), 3u);
  EXPECT_EQ(shown->columns[0], "section");
  ASSERT_FALSE(shown->rows.empty());
  EXPECT_EQ(shown->rows[0][0].as_string(), "profile");
  EXPECT_EQ(shown->rows[0][1].as_string(), "statements");
  bool has_entity_row = false;
  for (const Row& row : shown->rows) {
    if (row[0].as_string() == "entity" && row[1].as_string() == "R") {
      has_entity_row = true;
      EXPECT_NE(row[2].as_string().find("probes=1"), std::string::npos)
          << row[2].as_string();
    }
  }
  EXPECT_TRUE(has_entity_row);

  // Introspection is not traffic: the profile is unchanged.
  EXPECT_EQ(WorkloadProfile::Global().ToJson(), before);
}

TEST_F(WorkloadEngineTest, ExportLoadStatementsRoundTripByteIdentically) {
  auto seed = erql::QueryEngine::Execute(
      db_.get(), "SELECT r.r_id, s.s_id FROM R r JOIN S s ON RS");
  ASSERT_TRUE(seed.ok());

  std::string path = ::testing::TempDir() + "/erbium_workload_roundtrip.json";
  auto exported = erql::QueryEngine::Execute(
      db_.get(), "EXPORT WORKLOAD INTO '" + path + "'");
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string first = buffer.str();
  EXPECT_FALSE(first.empty());

  auto loaded = erql::QueryEngine::Execute(
      db_.get(), "LOAD WORKLOAD FROM '" + path + "'");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Neither EXPORT nor LOAD is itself profiled, so a second export is
  // byte-identical to the file just loaded.
  EXPECT_EQ(WorkloadProfile::Global().ToJson(), first);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// ADVISE: captured traffic feeds the mapping advisor.

TEST(WorkloadAdvisorTest, ReplayedTrafficSelectsSameMappingAsHandWritten) {
  // Mirror of AdvisorTest.PicksWorkloadAppropriateMapping, but with the
  // workload *captured* from live traffic instead of hand-written: the
  // MV-point-lookup traffic must still make the array mapping win over
  // side tables.
  Figure4Config config;
  config.num_r = 400;
  config.num_s = 100;
  std::shared_ptr<ERSchema> schema;
  auto db = MakeFigure4Database(MappingSpec::Normalized("side_tables"),
                                config, &schema);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  WorkloadProfile::Global().Clear();
  WorkloadProfile::Global().set_enabled(true);
  for (int id : {10, 77, 140, 250, 333}) {
    auto result = erql::QueryEngine::Execute(
        db->get(), "SELECT r_id, r_mv1, r_mv2, r_mv3 FROM R WHERE r_id = " +
                       std::to_string(id));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  WorkloadSnapshot snapshot = WorkloadProfile::Global().Snapshot();
  Workload workload = WorkloadFromProfile(snapshot, 8);
  // The five point lookups share one normalized shape.
  ASSERT_EQ(workload.queries.size(), 1u);
  EXPECT_GE(workload.queries[0].weight, 1.0);
  EXPECT_EQ(workload.queries[0].label,
            "select r_id , r_mv1 , r_mv2 , r_mv3 from r where r_id = ?");

  auto populate = [&config](MappedDatabase* target) {
    return PopulateFigure4(target, config);
  };
  MappingSpec side = MappingSpec::Normalized("side_tables");
  MappingSpec arrays = MappingSpec::Normalized("arrays");
  arrays.default_multi_valued = MultiValuedStorage::kArray;
  auto advice = MappingAdvisor::Advise(schema.get(), {side, arrays}, populate,
                                       workload, 3);
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  EXPECT_EQ(advice->best().name, "arrays");
}

TEST(WorkloadAdvisorTest, NonSelectShapesAreExcluded) {
  WorkloadSnapshot snapshot;
  snapshot.shapes.push_back({"trace select ?", "TRACE SELECT 1", "trace",
                             5, 100});
  snapshot.shapes.push_back({"select a from r", "SELECT a FROM R", "select",
                             1, 50});
  Workload workload = WorkloadFromProfile(snapshot, 8);
  ASSERT_EQ(workload.queries.size(), 1u);
  EXPECT_EQ(workload.queries[0].erql, "SELECT a FROM R");
}

// ---------------------------------------------------------------------
// The statement runner: CRUD feed, ADVISE end to end.

TEST(WorkloadRunnerTest, InsertStatementFeedsCrudCounters) {
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 50;
  options.figure4_num_s = 20;
  auto runner = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  WorkloadProfile::Global().Clear();
  WorkloadProfile::Global().set_enabled(true);

  auto outcome = (*runner)->Execute(
      "INSERT R (r_id = 90001, r_a1 = 1, r_a2 = 0.5, r_a3 = 'x', r_a4 = 1)");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  WorkloadSnapshot snapshot = WorkloadProfile::Global().Snapshot();
  EXPECT_EQ(snapshot.entities.at("R").inserts, 1u);
  // Statement-level feed only: the INSERT is not a profiled query shape.
  EXPECT_EQ(snapshot.statements, 0u);
}

TEST(WorkloadRunnerTest, AdviseWithoutTrafficFailsWithHint) {
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 50;
  options.figure4_num_s = 20;
  auto runner = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(runner.ok());
  WorkloadProfile::Global().Clear();

  auto outcome = (*runner)->Execute("ADVISE");
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().ToString().find("no captured SELECT traffic"),
            std::string::npos)
      << outcome.status().ToString();
}

TEST(WorkloadRunnerTest, AdviseRanksCandidatesFromLiveTraffic) {
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 120;
  options.figure4_num_s = 40;
  auto created = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  api::StatementRunner* runner = created->get();
  WorkloadProfile::Global().Clear();
  WorkloadProfile::Global().set_enabled(true);

  for (const char* text :
       {"SELECT r_id, r_mv1 FROM R WHERE r_id = 10",
        "SELECT r_id, r_mv1 FROM R WHERE r_id = 20",
        "SELECT r_id, r_a1 FROM R"}) {
    auto outcome = runner->Execute(text);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }

  auto advised = runner->Execute("ADVISE LIMIT 3");
  ASSERT_TRUE(advised.ok()) << advised.status().ToString();
  EXPECT_EQ(advised->shape, api::OutputShape::kTable);
  const erql::QueryResult& table = advised->result;
  ASSERT_EQ(table.columns.size(), 5u);
  EXPECT_EQ(table.columns[0], "rank");
  EXPECT_EQ(table.columns[1], "mapping");
  EXPECT_EQ(table.columns[3], "vs_active");
  ASSERT_LE(table.rows.size(), 3u);
  ASSERT_FALSE(table.rows.empty());
  EXPECT_EQ(table.rows[0][0].as_int64(), 1);
  // The top-ranked candidate is the advisor's pick.
  EXPECT_NE(table.rows[0][4].as_string().find("best"), std::string::npos)
      << table.rows[0][4].as_string();
  // Exactly one row is flagged as the active mapping across the full
  // (unlimited) listing.
  auto full = runner->Execute("ADVISE");
  ASSERT_TRUE(full.ok());
  int active_rows = 0;
  for (const Row& row : full->result.rows) {
    if (row[4].as_string().find("active") != std::string::npos) ++active_rows;
  }
  EXPECT_EQ(active_rows, 1);
  // ADVISE itself observed without perturbing the profile.
  EXPECT_EQ(WorkloadProfile::Global().Snapshot().statements, 3u);
}

}  // namespace
}  // namespace obs
}  // namespace erbium
