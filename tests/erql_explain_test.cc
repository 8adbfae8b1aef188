// EXPLAIN / EXPLAIN ANALYZE end-to-end tests on the Figure-4 workload:
// the plan tree must keep its logical shape whether the query runs
// serial or morsel-parallel, and ANALYZE row counts must equal the
// query's actual output cardinality in both modes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "erql/query_engine.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

Figure4Config SmallConfig() {
  Figure4Config config;
  config.num_r = 2000;
  config.num_s = 600;
  config.rs_per_r = 2;
  return config;
}

ExecOptions Parallel8() {
  ExecOptions opts;
  opts.num_threads = 8;
  opts.parallel_row_threshold = 0;  // parallelize even the small test data
  return opts;
}

struct Fixture {
  std::shared_ptr<ERSchema> schema;
  std::unique_ptr<MappedDatabase> db;
};

Fixture MakeDb(const MappingSpec& spec) {
  Fixture f;
  auto db = MakeFigure4Database(spec, SmallConfig(), &f.schema);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  f.db = std::move(*db);
  return f;
}

std::vector<std::string> Lines(const erql::QueryResult& result) {
  std::vector<std::string> out;
  for (const Row& row : result.rows) {
    // Value::ToString renders strings quoted; unwrap to the raw line.
    std::string line = row[0].ToString();
    if (line.size() >= 2 && line.front() == '\'' && line.back() == '\'') {
      line = line.substr(1, line.size() - 2);
    }
    out.push_back(std::move(line));
  }
  return out;
}

// The plan-tree section: everything after the leading "mapping:" line and
// before the trailing "mapping notes:" block and ANALYZE total line.
std::vector<std::string> TreeLines(const erql::QueryResult& result) {
  std::vector<std::string> out;
  for (const std::string& line : Lines(result)) {
    if (line.rfind("mapping: ", 0) == 0) continue;
    if (line == "mapping notes:") break;
    if (line.rfind("total wall=", 0) == 0) continue;
    out.push_back(line);
  }
  return out;
}

std::string Trimmed(const std::string& line) {
  size_t start = line.find_first_not_of(' ');
  return start == std::string::npos ? std::string() : line.substr(start);
}

// Reduces a plan line to its logical operator name: indentation and
// bracketed details dropped, parallel operators mapped to their serial
// counterparts. Gather is purely an exchange wrapper and maps to nothing.
std::string LogicalName(const std::string& line) {
  std::string name = Trimmed(line);
  size_t bracket = name.find(" [");
  if (bracket != std::string::npos) name = name.substr(0, bracket);
  if (name.rfind("Gather(", 0) == 0) return std::string();
  if (name.rfind("ParallelScan(", 0) == 0) {
    return "SeqScan(" + name.substr(std::string("ParallelScan(").size());
  }
  if (name.rfind("ParallelHashAggregate(", 0) == 0) {
    size_t groups = name.find("groups=");
    return groups == std::string::npos ? name
                                       : "HashAggregate(" + name.substr(groups);
  }
  return name;
}

std::vector<std::string> LogicalShape(const erql::QueryResult& result) {
  std::vector<std::string> out;
  for (const std::string& line : TreeLines(result)) {
    std::string name = LogicalName(line);
    if (!name.empty()) out.push_back(name);
  }
  return out;
}

// rows=N from an ANALYZE plan line.
uint64_t LineRows(const std::string& line) {
  size_t pos = line.find("rows=");
  EXPECT_NE(pos, std::string::npos) << line;
  if (pos == std::string::npos) return 0;
  return std::stoull(line.substr(pos + 5));
}

// rows=N from the first (root) plan line of an ANALYZE result.
uint64_t RootRows(const erql::QueryResult& result) {
  std::vector<std::string> tree = TreeLines(result);
  EXPECT_FALSE(tree.empty());
  return tree.empty() ? 0 : LineRows(tree[0]);
}

// rows=N of every hash join's build (second) child in an ANALYZE result,
// top to bottom.
std::vector<uint64_t> BuildChildRows(const erql::QueryResult& result) {
  std::vector<std::string> tree = TreeLines(result);
  auto indent = [](const std::string& line) {
    return line.find_first_not_of(' ');
  };
  std::vector<uint64_t> out;
  for (size_t i = 0; i < tree.size(); ++i) {
    std::string name = LogicalName(tree[i]);
    if (name.rfind("HashJoin(", 0) != 0 &&
        name.rfind("HashLeftJoin(", 0) != 0) {
      continue;
    }
    size_t child_indent = indent(tree[i]) + 2;
    int children = 0;
    for (size_t j = i + 1; j < tree.size() && indent(tree[j]) >= child_indent;
         ++j) {
      if (indent(tree[j]) == child_indent && ++children == 2) {
        out.push_back(LineRows(tree[j]));
        break;
      }
    }
  }
  return out;
}

erql::QueryResult RunQuery(MappedDatabase* db, const std::string& query,
                      const ExecOptions& opts = ExecOptions::Serial()) {
  auto result = erql::QueryEngine::Execute(db, query, opts);
  EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
  return result.ok() ? std::move(*result) : erql::QueryResult{};
}

const char* kJoinQuery =
    "SELECT r.r_id, s.s_id, rs_a1 FROM R r JOIN S s ON RS "
    "WHERE s.s_a1 < 5000";
const char* kAggregateQuery =
    "SELECT r_a4, count(*) AS n, sum(r_a1) AS total FROM R "
    "WHERE r_a1 < 800";
const char* kScanQuery = "SELECT r_id, r_a1 FROM R WHERE r_a4 < 3";

TEST(ErqlExplainTest, ExplainShowsMappingAndPlan) {
  Fixture f = MakeDb(Figure4M1());
  erql::QueryResult result = RunQuery(f.db.get(), std::string("EXPLAIN ") +
                                                 kJoinQuery);
  ASSERT_EQ(result.columns, std::vector<std::string>{"plan"});
  std::vector<std::string> lines = Lines(result);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0].rfind("mapping: M1", 0), 0u) << lines[0];
  bool has_notes = false;
  for (const std::string& line : lines) {
    if (line == "mapping notes:") has_notes = true;
  }
  EXPECT_TRUE(has_notes);
  // EXPLAIN without ANALYZE must not run the query or report stats.
  for (const std::string& line : TreeLines(result)) {
    EXPECT_EQ(line.find("rows="), std::string::npos) << line;
  }
  EXPECT_FALSE(LogicalShape(result).empty());
}

TEST(ErqlExplainTest, MappingNotesFollowTheSpec) {
  Fixture m1 = MakeDb(Figure4M1());
  Fixture m2 = MakeDb(Figure4M2());
  std::string q = "EXPLAIN SELECT r_id, r_a3 FROM R";
  std::vector<std::string> n1 = Lines(RunQuery(m1.db.get(), q));
  std::vector<std::string> n2 = Lines(RunQuery(m2.db.get(), q));
  // M1 stores the multi-valued r_a3 in a side table, M2 as an array
  // column; the notes must say which one the plan was compiled against.
  auto joined = [](const std::vector<std::string>& lines) {
    std::string out;
    for (const std::string& line : lines) out += line + "\n";
    return out;
  };
  EXPECT_NE(joined(n1).find("side table"), std::string::npos) << joined(n1);
  EXPECT_NE(joined(n2).find("array column"), std::string::npos) << joined(n2);
}

TEST(ErqlExplainTest, PlanShapeStableSerialVsParallel) {
  Fixture f = MakeDb(Figure4M1());
  for (const char* query : {kJoinQuery, kAggregateQuery, kScanQuery}) {
    std::string explain = std::string("EXPLAIN ") + query;
    erql::QueryResult serial = RunQuery(f.db.get(), explain);
    erql::QueryResult parallel = RunQuery(f.db.get(), explain, Parallel8());
    EXPECT_EQ(LogicalShape(serial), LogicalShape(parallel)) << query;
  }
}

TEST(ErqlExplainTest, AnalyzeRowCountsMatchCardinalitySerial) {
  Fixture f = MakeDb(Figure4M1());
  for (const char* query : {kJoinQuery, kAggregateQuery, kScanQuery}) {
    uint64_t actual = RunQuery(f.db.get(), query).rows.size();
    erql::QueryResult analyzed =
        RunQuery(f.db.get(), std::string("EXPLAIN ANALYZE ") + query);
    EXPECT_EQ(RootRows(analyzed), actual) << query;
    EXPECT_GT(actual, 0u) << query;  // non-trivial workload
  }
}

TEST(ErqlExplainTest, AnalyzeRowCountsMatchCardinalityParallel) {
  Fixture f = MakeDb(Figure4M1());
  for (const char* query : {kJoinQuery, kAggregateQuery, kScanQuery}) {
    uint64_t actual = RunQuery(f.db.get(), query, Parallel8()).rows.size();
    erql::QueryResult analyzed = RunQuery(
        f.db.get(), std::string("EXPLAIN ANALYZE ") + query, Parallel8());
    EXPECT_EQ(RootRows(analyzed), actual) << query;
    EXPECT_GT(actual, 0u) << query;
  }
  // A parallelized join's build child runs once, serially: it reports the
  // serial run's row count.
  std::string join = std::string("EXPLAIN ANALYZE ") + kJoinQuery;
  std::vector<uint64_t> serial = BuildChildRows(RunQuery(f.db.get(), join));
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(BuildChildRows(RunQuery(f.db.get(), join, Parallel8())), serial);
}

TEST(ErqlExplainTest, AnalyzeReportsTimings) {
  Fixture f = MakeDb(Figure4M1());
  erql::QueryResult analyzed =
      RunQuery(f.db.get(), std::string("EXPLAIN ANALYZE ") + kScanQuery);
  std::vector<std::string> tree = TreeLines(analyzed);
  ASSERT_FALSE(tree.empty());
  EXPECT_NE(tree[0].find("wall="), std::string::npos) << tree[0];
  bool has_total = false;
  for (const std::string& line : Lines(analyzed)) {
    if (line.rfind("total wall=", 0) == 0) has_total = true;
  }
  EXPECT_TRUE(has_total);
}

TEST(ErqlExplainTest, ParallelAnalyzeReportsWorkersAndMorsels) {
  Fixture f = MakeDb(Figure4M1());
  erql::QueryResult analyzed = RunQuery(
      f.db.get(), std::string("EXPLAIN ANALYZE ") + kScanQuery, Parallel8());
  std::string all;
  for (const std::string& line : TreeLines(analyzed)) all += line + "\n";
  EXPECT_NE(all.find("workers="), std::string::npos) << all;
  EXPECT_NE(all.find("morsels="), std::string::npos) << all;
}

}  // namespace
}  // namespace erbium
