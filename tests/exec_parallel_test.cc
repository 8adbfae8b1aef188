// Property tests for morsel-driven parallel execution: every parallel
// plan must produce exactly the serial plan's multiset of rows, across
// thread counts and morsel sizes, and ORDER BY output must stay
// byte-deterministic. Run these under -DERBIUM_SANITIZE=thread as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "erql/query_engine.h"
#include "exec/aggregate.h"
#include "exec/join.h"
#include "exec/parallel.h"
#include "exec/sort.h"
#include "storage/table.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

// The serial-vs-parallel matrix required by the issue.
const int kThreadCounts[] = {1, 2, 8};
const size_t kMorselSizes[] = {1, 7, 2048};

ExecOptions Opts(int threads, size_t morsel) {
  ExecOptions opts;
  opts.num_threads = threads;
  opts.morsel_size = morsel;
  opts.parallel_row_threshold = 0;  // parallelize even tiny test tables
  return opts;
}

// Renders rows to sorted strings: equal multisets <=> equal vectors.
std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Row> Drain(Operator* op) {
  auto rows = CollectRows(op);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? std::move(*rows) : std::vector<Row>{};
}

// A table of (a, b, c) with every 13th row tombstoned, so morsels see
// dead slots. `b` repeats (join/group key), `c` is null every 7th row.
std::unique_ptr<Table> MakeTable(const std::string& name, int64_t n,
                                 int64_t key_mod) {
  auto table = std::make_unique<Table>(
      TableSchema(name,
                  {Column{"a", Type::Int64(), false},
                   Column{"b", Type::Int64(), true},
                   Column{"c", Type::Int64(), true}},
                  {}));
  std::vector<RowId> ids;
  for (int64_t i = 0; i < n; ++i) {
    Row row{Value::Int64(i), Value::Int64(i % key_mod),
            i % 7 == 0 ? Value::Null() : Value::Int64(i * 3 % 101)};
    auto id = table->Insert(std::move(row));
    EXPECT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (size_t i = 0; i < ids.size(); i += 13) {
    EXPECT_TRUE(table->Delete(ids[i]).ok());
  }
  return table;
}

// Builds serial + parallel variants of the same plan and checks multiset
// equality at every (threads, morsel) point, including a re-Open.
void CheckEquivalence(
    const std::function<OperatorPtr()>& make_serial_plan) {
  OperatorPtr reference = make_serial_plan();
  std::vector<std::string> expected = Canonical(Drain(reference.get()));
  for (int threads : kThreadCounts) {
    for (size_t morsel : kMorselSizes) {
      OperatorPtr plan =
          MaybeParallelGather(make_serial_plan(), Opts(threads, morsel));
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " morsel=" + std::to_string(morsel) + " plan:\n" +
                   PrintPlan(*plan));
      if (threads > 1) {
        EXPECT_NE(plan->name().find("Gather"), std::string::npos);
      }
      EXPECT_EQ(Canonical(Drain(plan.get())), expected);
      // Plans are re-runnable (benchmarks re-Open them).
      EXPECT_EQ(Canonical(Drain(plan.get())), expected);
    }
  }
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasksAndGrows) {
  ThreadPool pool(2);
  pool.EnsureWorkers(8);
  EXPECT_GE(pool.num_workers(), 8);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 100);
}

// ---- Scans ------------------------------------------------------------------

TEST(ParallelExecTest, ScanEquivalence) {
  auto table = MakeTable("t", 500, 10);
  CheckEquivalence([&] { return std::make_unique<SeqScan>(table.get()); });
}

TEST(ParallelExecTest, FilteredProjectedScanEquivalence) {
  auto table = MakeTable("t", 611, 10);
  CheckEquivalence([&]() -> OperatorPtr {
    OperatorPtr plan = std::make_unique<SeqScan>(table.get());
    // a % 3 = 0
    ExprPtr pred = MakeCompare(
        CompareOp::kEq,
        MakeArithmetic(ArithmeticOp::kMod, MakeColumnRef(0, "a"),
                       MakeLiteral(Value::Int64(3))),
        MakeLiteral(Value::Int64(0)));
    plan = std::make_unique<FilterOp>(std::move(plan), std::move(pred));
    std::vector<Column> cols{Column{"a2", Type::Int64(), true},
                             Column{"b", Type::Int64(), true}};
    std::vector<ExprPtr> exprs{
        MakeArithmetic(ArithmeticOp::kMul, MakeColumnRef(0, "a"),
                       MakeLiteral(Value::Int64(2))),
        MakeColumnRef(1, "b")};
    return std::make_unique<ProjectOp>(std::move(plan), std::move(cols),
                                       std::move(exprs));
  });
}

TEST(ParallelExecTest, UnionAllEquivalence) {
  auto t1 = MakeTable("t1", 300, 10);
  auto t2 = MakeTable("t2", 177, 5);
  CheckEquivalence([&]() -> OperatorPtr {
    std::vector<OperatorPtr> children;
    children.push_back(std::make_unique<SeqScan>(t1.get()));
    children.push_back(std::make_unique<SeqScan>(t2.get()));
    return std::make_unique<UnionAllOp>(std::move(children));
  });
}

// ---- Hash joins -------------------------------------------------------------

void CheckJoinEquivalence(JoinType join_type) {
  // Partial key overlap: probe keys in [0, 20), build keys in [0, 12).
  auto probe = MakeTable("probe", 613, 20);
  auto build = MakeTable("build", 331, 12);
  CheckEquivalence([&]() -> OperatorPtr {
    std::vector<ExprPtr> left_keys{MakeColumnRef(1, "b")};
    std::vector<ExprPtr> right_keys{MakeColumnRef(1, "b")};
    return std::make_unique<HashJoinOp>(
        std::make_unique<SeqScan>(probe.get()),
        std::make_unique<SeqScan>(build.get()), std::move(left_keys),
        std::move(right_keys), join_type);
  });
}

TEST(ParallelExecTest, InnerHashJoinEquivalence) {
  CheckJoinEquivalence(JoinType::kInner);
}

TEST(ParallelExecTest, LeftOuterHashJoinEquivalence) {
  CheckJoinEquivalence(JoinType::kLeftOuter);
}

// Null join keys never match but left-outer must still emit them.
TEST(ParallelExecTest, JoinWithNullKeysEquivalence) {
  auto probe = MakeTable("probe", 401, 20);
  auto build = MakeTable("build", 223, 12);
  CheckEquivalence([&]() -> OperatorPtr {
    // Key column c is null every 7th row on both sides.
    std::vector<ExprPtr> left_keys{MakeColumnRef(2, "c")};
    std::vector<ExprPtr> right_keys{MakeColumnRef(2, "c")};
    return std::make_unique<HashJoinOp>(
        std::make_unique<SeqScan>(probe.get()),
        std::make_unique<SeqScan>(build.get()), std::move(left_keys),
        std::move(right_keys), JoinType::kLeftOuter);
  });
}

// ---- Aggregates -------------------------------------------------------------

TEST(ParallelExecTest, GroupedAggregateEquivalence) {
  auto table = MakeTable("t", 907, 10);
  std::vector<AggregateSpec> specs{
      {AggKind::kCountStar, nullptr, "n", false},
      {AggKind::kCount, MakeColumnRef(2, "c"), "nc", false},
      {AggKind::kSum, MakeColumnRef(0, "a"), "total", false},
      {AggKind::kAvg, MakeColumnRef(0, "a"), "mean", false},
      {AggKind::kMin, MakeColumnRef(2, "c"), "lo", false},
      {AggKind::kMax, MakeColumnRef(2, "c"), "hi", false},
      {AggKind::kCount, MakeColumnRef(2, "c"), "ndistinct", true},
  };
  auto make_aggregate = [&](const ExecOptions& opts) {
    std::vector<ExprPtr> group_exprs{MakeColumnRef(1, "b")};
    return MakeAggregatePlan(std::make_unique<SeqScan>(table.get()),
                             std::move(group_exprs), {"b"}, specs, opts);
  };
  OperatorPtr reference = make_aggregate(ExecOptions::Serial());
  std::vector<std::string> expected = Canonical(Drain(reference.get()));
  for (int threads : kThreadCounts) {
    for (size_t morsel : kMorselSizes) {
      OperatorPtr plan = make_aggregate(Opts(threads, morsel));
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " morsel=" + std::to_string(morsel));
      if (threads > 1) {
        EXPECT_NE(plan->name().find("ParallelHashAggregate"),
                  std::string::npos);
      }
      EXPECT_EQ(Canonical(Drain(plan.get())), expected);
      EXPECT_EQ(Canonical(Drain(plan.get())), expected);
    }
  }
}

TEST(ParallelExecTest, GlobalAggregateOverEmptyInputEmitsOneRow) {
  Table empty(TableSchema("e", {Column{"a", Type::Int64(), true}}, {}));
  std::vector<AggregateSpec> specs{
      {AggKind::kCountStar, nullptr, "n", false},
      {AggKind::kSum, MakeColumnRef(0, "a"), "total", false}};
  OperatorPtr plan = MakeAggregatePlan(std::make_unique<SeqScan>(&empty), {},
                                       {}, specs, Opts(8, 7));
  std::vector<Row> rows = Drain(plan.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(0));
  EXPECT_TRUE(rows[0][1].is_null());
}

// array_agg must refuse parallel aggregation (element order would depend
// on worker scheduling).
TEST(ParallelExecTest, ArrayAggStaysSerial) {
  auto table = MakeTable("t", 100, 10);
  std::vector<AggregateSpec> specs{
      {AggKind::kArrayAgg, MakeColumnRef(0, "a"), "vals", false}};
  std::vector<ExprPtr> group_exprs{MakeColumnRef(1, "b")};
  OperatorPtr plan =
      MakeAggregatePlan(std::make_unique<SeqScan>(table.get()),
                        std::move(group_exprs), {"b"}, specs, Opts(8, 7));
  EXPECT_EQ(plan->name().find("Parallel"), std::string::npos);
}

// ---- Determinism and lifecycle ---------------------------------------------

TEST(ParallelExecTest, OrderByIsByteDeterministicAcrossRuns) {
  auto table = MakeTable("t", 1000, 10);
  OperatorPtr plan = MaybeParallelGather(
      std::make_unique<SeqScan>(table.get()), Opts(8, 7));
  // Unique sort key (column a) => one total order.
  std::vector<SortKey> keys;
  keys.push_back(SortKey{MakeColumnRef(0, "a"), false});
  plan = std::make_unique<SortOp>(std::move(plan), std::move(keys));
  std::string first;
  for (int run = 0; run < 5; ++run) {
    std::vector<Row> rows = Drain(plan.get());
    std::string rendered;
    for (const Row& row : rows) {
      for (const Value& v : row) rendered += v.ToString() + "|";
      rendered += "\n";
    }
    if (run == 0) {
      first = std::move(rendered);
      EXPECT_FALSE(first.empty());
    } else {
      EXPECT_EQ(rendered, first) << "run " << run << " differed";
    }
  }
}

// A consumer may abandon a parallel plan mid-stream (LIMIT) and re-Open
// it; workers must be cancelled cleanly and the rerun must be complete.
TEST(ParallelExecTest, PartialDrainThenReopen) {
  auto table = MakeTable("t", 800, 10);
  auto make_scan = [&] { return std::make_unique<SeqScan>(table.get()); };
  OperatorPtr reference = make_scan();
  std::vector<std::string> expected = Canonical(Drain(reference.get()));
  OperatorPtr plan = MaybeParallelGather(make_scan(), Opts(8, 7));
  ASSERT_TRUE(plan->Open().ok());
  Row row;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(plan->Next(&row));
  }
  // Abandon and rerun.
  EXPECT_EQ(Canonical(Drain(plan.get())), expected);
}

// Destroying a partially-drained plan must not hang or leak workers.
TEST(ParallelExecTest, DestroyWhileWorkersActive) {
  auto table = MakeTable("t", 2000, 10);
  for (int i = 0; i < 10; ++i) {
    OperatorPtr plan = MaybeParallelGather(
        std::make_unique<SeqScan>(table.get()), Opts(8, 1));
    ASSERT_TRUE(plan->Open().ok());
    Row row;
    ASSERT_TRUE(plan->Next(&row));
  }
}

TEST(ParallelExecTest, SerialOptionsLeavePlanUntouched) {
  auto table = MakeTable("t", 500, 10);
  OperatorPtr plan = MaybeParallelGather(
      std::make_unique<SeqScan>(table.get()), ExecOptions::Serial());
  EXPECT_EQ(plan->name(), "SeqScan(t)");
  // Below the row threshold the plan also stays serial.
  ExecOptions opts = Opts(8, 2048);
  opts.parallel_row_threshold = 1000000;
  plan = MaybeParallelGather(std::make_unique<SeqScan>(table.get()), opts);
  EXPECT_EQ(plan->name(), "SeqScan(t)");
}

// The threshold counts a join's build side too: a probe scan below it
// still parallelizes when the build side takes the total over it, as the
// R2 JOIN S1 queries do at benchmark scale.
TEST(ParallelExecTest, ThresholdCountsJoinBuildSide) {
  auto probe = MakeTable("probe", 300, 20);  // 300 scan slots
  auto build = MakeTable("build", 500, 12);  // 461 live rows
  auto make_plan = [&]() -> OperatorPtr {
    std::vector<ExprPtr> left_keys{MakeColumnRef(1, "b")};
    std::vector<ExprPtr> right_keys{MakeColumnRef(1, "b")};
    return std::make_unique<HashJoinOp>(
        std::make_unique<SeqScan>(probe.get()),
        std::make_unique<SeqScan>(build.get()), std::move(left_keys),
        std::move(right_keys));
  };
  OperatorPtr serial = make_plan();
  std::vector<std::string> expected = Canonical(Drain(serial.get()));
  ASSERT_FALSE(expected.empty());

  ExecOptions opts = Opts(4, 64);
  opts.parallel_row_threshold = 600;  // above the probe, below the total
  OperatorPtr plan = MaybeParallelGather(make_plan(), opts);
  EXPECT_EQ(plan->name().rfind("Gather(", 0), 0u) << PrintPlan(*plan);
  EXPECT_EQ(Canonical(Drain(plan.get())), expected);

  opts.parallel_row_threshold = 800;  // above the total
  plan = MaybeParallelGather(make_plan(), opts);
  EXPECT_EQ(plan->name().rfind("HashJoin(", 0), 0u) << PrintPlan(*plan);
  EXPECT_EQ(Canonical(Drain(plan.get())), expected);
}

// ---- End-to-end through ERQL on the Figure 4 workload -----------------------

class ParallelErqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Figure4Config config;
    config.num_r = 400;
    config.num_s = 120;
    for (const MappingSpec& spec : {Figure4M1(), Figure4M2()}) {
      schemas_.emplace_back();
      auto db = MakeFigure4Database(spec, config, &schemas_.back());
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      dbs_.push_back(std::move(*db));
    }
  }

  std::vector<std::shared_ptr<ERSchema>> schemas_;
  std::vector<std::unique_ptr<MappedDatabase>> dbs_;
};

TEST_F(ParallelErqlTest, SerialAndParallelResultsMatch) {
  const char* queries[] = {
      "SELECT r_id, r_a1 FROM R WHERE r_a1 < 500",
      "SELECT r_id, r_a1, r1_a1, r3_a1 FROM R3",
      "SELECT r_id, unnest(r_mv1) AS v FROM R",
      "SELECT r.r_id, s.s_id, rs_a1 FROM R r JOIN S s ON RS",
      "SELECT r_a4, count(*) AS n, sum(r_a1) AS total, min(r_a1) AS lo "
      "FROM R",
      "SELECT count(DISTINCT r_a4) AS n FROM R",
      "SELECT r_id, r_a1 FROM R WHERE r_a1 < 300 ORDER BY r_a1 DESC, r_id "
      "ASC",
      "SELECT DISTINCT r_a4 FROM R WHERE r_a4 < 5",
  };
  ExecOptions parallel = Opts(8, 64);
  for (auto& db : dbs_) {
    for (const char* query : queries) {
      SCOPED_TRACE(db->mapping().spec().name + ": " + query);
      auto serial =
          erql::QueryEngine::Execute(db.get(), query, ExecOptions::Serial());
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      auto par = erql::QueryEngine::Execute(db.get(), query, parallel);
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_EQ(serial->ToCanonicalString(), par->ToCanonicalString());
    }
  }
}

}  // namespace
}  // namespace erbium
