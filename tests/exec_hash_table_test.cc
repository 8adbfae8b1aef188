// Tests for the executor's flat hash table (exec/hash_table.h) and the
// operators built on it: hash joins (serial and parallel), hash
// aggregation and DISTINCT. Inputs are seeded random rows; every result
// is checked against a std::map / std::set reference, under the same
// equality Value::Compare defines (Int64(2) == Float64(2.0)).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "erql/query_engine.h"
#include "exec/aggregate.h"
#include "exec/hash_table.h"
#include "exec/join.h"
#include "exec/parallel.h"
#include "exec/snapshot.h"
#include "storage/table.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

using Key = std::vector<Value>;  // std::map orders it by Value::Compare

std::vector<Column> Cols(size_t n) {
  std::vector<Column> cols;
  for (size_t i = 0; i < n; ++i) {
    cols.push_back(Column{"c" + std::to_string(i), Type::Null(), true});
  }
  return cols;
}

// A key value from a small domain: integral numbers as Int64 or Float64
// (so cross-kind matches happen), some strings, some nulls.
Value RandomKeyValue(std::mt19937_64* rng, int64_t domain) {
  int64_t v = static_cast<int64_t>((*rng)() % domain);
  switch ((*rng)() % 8) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Float64(static_cast<double>(v));
    case 2:
      return Value::String("k" + std::to_string(v));
    default:
      return Value::Int64(v);
  }
}

// Rows of `key_cols` key columns then one payload column (the row index).
std::vector<Row> RandomRows(uint64_t seed, size_t n, size_t key_cols,
                            int64_t domain) {
  std::mt19937_64 rng(seed);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    Row row;
    for (size_t k = 0; k < key_cols; ++k) {
      row.push_back(RandomKeyValue(&rng, domain));
    }
    row.push_back(Value::Int64(static_cast<int64_t>(i)));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<ExprPtr> KeyRefs(size_t n) {
  std::vector<ExprPtr> refs;
  for (size_t i = 0; i < n; ++i) {
    refs.push_back(MakeColumnRef(static_cast<int>(i), "c" + std::to_string(i)));
  }
  return refs;
}

Key KeyOf(const Row& row, size_t key_cols) {
  return Key(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(key_cols));
}

bool HasNull(const Key& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

std::string RenderRow(const Row& row) {
  std::string line;
  for (const Value& v : row) line += v.ToString() + "|";
  return line;
}

std::multiset<std::string> Render(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& row : rows) out.insert(RenderRow(row));
  return out;
}

std::vector<Row> Drain(Operator* op) {
  auto rows = CollectRows(op);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? std::move(*rows) : std::vector<Row>{};
}

// Emits its rows without a size estimate, so tables start at their floor
// and must grow through several rehashes.
class UnsizedValuesOp : public Operator {
 public:
  UnsizedValuesOp(std::vector<Column> columns, std::vector<Row> rows)
      : rows_(std::move(rows)) {
    output_ = std::move(columns);
  }
  Status OpenImpl() override {
    next_ = 0;
    return Status::OK();
  }
  bool NextImpl(Row* out) override {
    if (next_ >= rows_.size()) return false;
    *out = rows_[next_++];
    return true;
  }
  std::string name() const override { return "UnsizedValues"; }

 private:
  std::vector<Row> rows_;
  size_t next_ = 0;
};

OperatorPtr Source(const std::vector<Row>& rows, size_t width, bool sized) {
  if (sized) return std::make_unique<ValuesOp>(Cols(width), rows);
  return std::make_unique<UnsizedValuesOp>(Cols(width), rows);
}

class SeededHashTable : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededHashTable,
                         ::testing::Values(1u, 7u, 42u, 1234u));

// ---- KeyTable ---------------------------------------------------------------

TEST_P(SeededHashTable, KeyTableMatchesMapAcrossRehashes) {
  std::vector<Row> rows = RandomRows(GetParam(), 12000, 2, 600);
  KeyTable table(2);
  table.Reset(0);  // no size hint: grows from the floor
  std::map<Key, uint32_t> reference;
  for (const Row& row : rows) {
    Key key = KeyOf(row, 2);
    auto [id, inserted] =
        table.FindOrInsert(HashKey(key.data(), key.size()), key.data());
    auto [it, ref_inserted] =
        reference.emplace(key, static_cast<uint32_t>(reference.size()));
    ASSERT_EQ(inserted, ref_inserted) << RenderRow(key);
    ASSERT_EQ(id, it->second) << RenderRow(key);  // dense, first-seen ids
  }
  ASSERT_EQ(table.size(), reference.size());
  ASSERT_GT(reference.size(), 1000u);  // several doublings past the floor
  for (const auto& [key, id] : reference) {
    EXPECT_EQ(table.Find(HashKey(key.data(), key.size()), key.data()), id);
    EXPECT_EQ(RenderRow(Key(table.key(id), table.key(id) + 2)),
              RenderRow(key));
  }
  Key absent{Value::String("absent"), Value::Int64(-1)};
  EXPECT_EQ(table.Find(HashKey(absent.data(), 2), absent.data()),
            KeyTable::kNotFound);
  // Reset empties the table but leaves it usable.
  table.Reset(0);
  EXPECT_EQ(table.size(), 0u);
  const Key& first = reference.begin()->first;
  EXPECT_EQ(table.Find(HashKey(first.data(), 2), first.data()),
            KeyTable::kNotFound);
  EXPECT_EQ(table.FindOrInsert(HashKey(first.data(), 2), first.data()).first,
            0u);
}

TEST(KeyTableTest, NumericKindsAndSignedZeroCompareEqual) {
  KeyTable table(1);
  table.Reset(0);
  Value two_int = Value::Int64(2);
  Value two_float = Value::Float64(2.0);
  Value zero = Value::Float64(0.0);
  Value neg_zero = Value::Float64(-0.0);
  EXPECT_EQ(HashKey(&two_int, 1), HashKey(&two_float, 1));
  uint32_t id = table.FindOrInsert(HashKey(&two_int, 1), &two_int).first;
  EXPECT_EQ(table.Find(HashKey(&two_float, 1), &two_float), id);
  EXPECT_FALSE(table.FindOrInsert(HashKey(&two_float, 1), &two_float).second);
  uint32_t zid = table.FindOrInsert(HashKey(&zero, 1), &zero).first;
  EXPECT_EQ(table.Find(HashKey(&neg_zero, 1), &neg_zero), zid);
  EXPECT_EQ(table.size(), 2u);
}

// ---- Joins ------------------------------------------------------------------

// Reference join through a std::multimap keyed by the build keys.
std::vector<Row> ReferenceJoin(const std::vector<Row>& left,
                               const std::vector<Row>& right, size_t key_cols,
                               JoinType type) {
  std::multimap<Key, const Row*> build;
  for (const Row& r : right) {
    Key key = KeyOf(r, key_cols);
    if (!HasNull(key)) build.emplace(std::move(key), &r);
  }
  std::vector<Row> out;
  for (const Row& l : left) {
    Key key = KeyOf(l, key_cols);
    auto [lo, hi] = HasNull(key) ? std::make_pair(build.end(), build.end())
                                 : build.equal_range(key);
    if (lo == hi && type == JoinType::kLeftOuter) {
      Row row = l;
      row.resize(l.size() + key_cols + 1);
      out.push_back(std::move(row));
    }
    for (auto it = lo; it != hi; ++it) {
      Row row = l;
      row.insert(row.end(), it->second->begin(), it->second->end());
      out.push_back(std::move(row));
    }
  }
  return out;
}

void CheckJoin(uint64_t seed, size_t key_cols, JoinType type, bool sized) {
  SCOPED_TRACE("keys=" + std::to_string(key_cols) + " left_outer=" +
               std::to_string(type == JoinType::kLeftOuter) +
               " sized=" + std::to_string(sized));
  // A small key domain gives many duplicate build keys: every match of a
  // probe row must be emitted.
  std::vector<Row> left = RandomRows(seed, 800, key_cols, 40);
  std::vector<Row> right = RandomRows(seed + 1, 600, key_cols, 40);
  HashJoinOp join(Source(left, key_cols + 1, true),
                  Source(right, key_cols + 1, sized), KeyRefs(key_cols),
                  KeyRefs(key_cols), type);
  std::vector<Row> expected = ReferenceJoin(left, right, key_cols, type);
  std::vector<Row> first = Drain(&join);
  EXPECT_EQ(Render(first), Render(expected));
  // Re-Open of the same plan gives identical output, in the same order.
  std::vector<Row> second = Drain(&join);
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(RenderRow(second[i]), RenderRow(first[i])) << "row " << i;
  }
}

TEST_P(SeededHashTable, HashJoinsMatchMultimapReference) {
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
    for (size_t key_cols : {1u, 2u}) {
      CheckJoin(GetParam(), key_cols, type, /*sized=*/true);
    }
  }
  // Build side without a size estimate: the table grows while building.
  CheckJoin(GetParam(), 1, JoinType::kInner, /*sized=*/false);
}

TEST(HashJoinTest, MatchesAcrossNumericKindsAndNeverOnNull) {
  std::vector<Row> left = {{Value::Float64(2.0), Value::String("l2")},
                           {Value::Null(), Value::String("lnull")},
                           {Value::Int64(3), Value::String("l3")}};
  std::vector<Row> right = {{Value::Int64(2), Value::String("r2a")},
                            {Value::Null(), Value::String("rnull")},
                            {Value::Int64(2), Value::String("r2b")}};
  HashJoinOp inner(Source(left, 2, true), Source(right, 2, true), KeyRefs(1),
                   KeyRefs(1), JoinType::kInner);
  EXPECT_EQ(Render(Drain(&inner)),
            (std::multiset<std::string>{"2.000000|'l2'|2|'r2a'|",
                                        "2.000000|'l2'|2|'r2b'|"}));
  HashJoinOp outer(Source(left, 2, true), Source(right, 2, true), KeyRefs(1),
                   KeyRefs(1), JoinType::kLeftOuter);
  EXPECT_EQ(Render(Drain(&outer)),
            (std::multiset<std::string>{
                "2.000000|'l2'|2|'r2a'|", "2.000000|'l2'|2|'r2b'|",
                "null|'lnull'|null|null|", "3|'l3'|null|null|"}));
}

TEST(JoinTableTest, RowsLiveInOneArenaInInsertionOrderPerKey) {
  // Width-3 build rows carrying inline and heap strings and arrays,
  // enough of them that the arena reallocates while building.
  constexpr int kRows = 3000;
  constexpr int kKeys = 7;
  auto build_row = [](int i) {
    return Row{Value::Int64(i % kKeys), Value::String(std::to_string(i)),
               Value::Array({Value::String(std::string(20, 'a' + i % 26)),
                             Value::Int64(i)})};
  };
  JoinTable table(/*arity=*/1, /*width=*/3);
  for (int round = 0; round < 2; ++round) {
    table.Reset(round == 0 ? 0 : kRows);
    Row row;
    for (int i = 0; i < kRows; ++i) {
      row = build_row(i);
      Value key = row[0];
      table.Insert(HashKey(&key, 1), &key, &row);
      // The row's values moved into the arena; its buffer stays.
      ASSERT_EQ(row.size(), 3u);
      EXPECT_TRUE(row[1].is_null());
    }
    for (int k = 0; k < kKeys; ++k) {
      const Value key = Value::Float64(k);  // cross-kind probe
      int expected = k;
      for (int32_t id = table.Find(HashKey(&key, 1), &key); id >= 0;
           id = table.next(id), expected += kKeys) {
        const Row want = build_row(expected);
        const Value* got = table.row(id);
        for (size_t c = 0; c < 3; ++c) EXPECT_EQ(got[c], want[c]) << id;
      }
      EXPECT_EQ(expected, k + kKeys * ((kRows - 1 - k) / kKeys + 1));
    }
    const Value absent = Value::Int64(kKeys);
    EXPECT_EQ(table.Find(HashKey(&absent, 1), &absent), -1);
  }
}

// ---- Aggregation and DISTINCT ----------------------------------------------

TEST_P(SeededHashTable, ArrayAggIsTheGroupMultiset) {
  std::vector<Row> rows = RandomRows(GetParam(), 8000, 1, 1500);
  // Payload column: the row index, null every 5th row (skipped by
  // array_agg, counted by count(*)).
  for (size_t i = 0; i < rows.size(); i += 5) rows[i][1] = Value::Null();
  std::map<Key, std::multiset<std::string>> ref_elements;
  std::map<Key, int64_t> ref_counts;
  for (const Row& row : rows) {
    Key key = KeyOf(row, 1);  // null is a group key like any other
    auto& elements = ref_elements[key];
    if (!row[1].is_null()) elements.insert(row[1].ToString());
    ++ref_counts[key];
  }
  std::vector<AggregateSpec> aggs;
  aggs.push_back(AggregateSpec{AggKind::kArrayAgg, MakeColumnRef(1, "c1"),
                               "values", false});
  aggs.push_back(AggregateSpec{AggKind::kCountStar, nullptr, "n", false});
  HashAggregateOp agg(Source(rows, 2, /*sized=*/false), KeyRefs(1), {"c0"},
                      std::move(aggs));
  std::vector<Row> first = Drain(&agg);
  ASSERT_EQ(first.size(), ref_elements.size());
  for (const Row& group : first) {
    Key key = KeyOf(group, 1);
    ASSERT_EQ(ref_elements.count(key), 1u) << RenderRow(key);
    std::multiset<std::string> elements;
    for (const Value& v : group[1].array()) elements.insert(v.ToString());
    EXPECT_EQ(elements, ref_elements[key]) << RenderRow(key);
    EXPECT_EQ(group[2].as_int64(), ref_counts[key]) << RenderRow(key);
  }
  std::vector<Row> second = Drain(&agg);
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(RenderRow(second[i]), RenderRow(first[i])) << "group " << i;
  }
}

TEST_P(SeededHashTable, DistinctKeepsFirstOccurrences) {
  std::vector<Row> rows = RandomRows(GetParam(), 8000, 2, 60);
  for (Row& row : rows) row.pop_back();  // rows are (key, key): many dups
  std::set<Key> seen;
  std::vector<std::string> expected;
  for (const Row& row : rows) {
    if (seen.insert(row).second) expected.push_back(RenderRow(row));
  }
  for (bool sized : {true, false}) {
    DistinctOp distinct(Source(rows, 2, sized));
    for (int run = 0; run < 2; ++run) {  // re-Open: identical output
      std::vector<std::string> got;
      for (const Row& row : Drain(&distinct)) got.push_back(RenderRow(row));
      EXPECT_EQ(got, expected) << "sized=" << sized << " run=" << run;
    }
  }
}

// ---- Parallel plans ---------------------------------------------------------

ExecOptions Opts(int threads) {
  ExecOptions opts;
  opts.num_threads = threads;
  opts.morsel_size = 64;
  opts.parallel_row_threshold = 0;
  return opts;
}

TEST(ParallelHashTableTest, AnalyticQueriesMatchSerialOnFigure4M1) {
  Figure4Config config;
  config.num_r = 600;
  config.num_s = 180;
  std::shared_ptr<ERSchema> schema;
  auto db = MakeFigure4Database(Figure4M1(), config, &schema);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // The paper's Section 6 queries the end-to-end benchmark cycles over.
  const char* queries[] = {
      "SELECT r_id, r_mv1, r_mv2, r_mv3 FROM R",
      "SELECT r_id, unnest(r_mv1) AS v FROM R",
      "SELECT r_id, array_intersect(r_mv1, r_mv2) AS common FROM R",
      "SELECT r_id, r_a1, r_a2, r_a3, r_a4, r1_a1, r1_a2, r3_a1, r3_a2 "
      "FROM R3",
      "SELECT r.r_id, s.s_id FROM R r JOIN S s ON RS "
      "WHERE r.r_a4 < 50 AND s.s_a1 < 5000",
      "SELECT r.r_a4, count(*) AS n, avg(r.r3_a1) AS m "
      "FROM R3 r JOIN S s ON RS WHERE r.r1_a1 < 900",
      "SELECT r.r_id, r.r2_a1, s1.s1_a1 FROM R2 r JOIN S1 s1 ON R2S1",
      "SELECT r.r_id, count(*) AS partners FROM R2 r JOIN S1 s1 ON R2S1",
  };
  for (const char* query : queries) {
    SCOPED_TRACE(query);
    auto serial = erql::QueryEngine::Execute(db->get(), query,
                                             ExecOptions::Serial());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_FALSE(serial->rows.empty());
    auto compiled = erql::QueryEngine::Compile(db->get(), query, Opts(4));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_NE(PrintPlan(*compiled->plan).find("Parallel"), std::string::npos)
        << PrintPlan(*compiled->plan);
    for (int run = 0; run < 2; ++run) {  // a cached plan re-Opens
      auto parallel = erql::QueryEngine::Execute(db->get(), query, Opts(4));
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(parallel->ToCanonicalString(), serial->ToCanonicalString());
    }
  }
}

std::unique_ptr<Table> MakeTable(const std::string& name, int64_t n,
                                 int64_t key_mod) {
  auto table = std::make_unique<Table>(
      TableSchema(name,
                  {Column{"a", Type::Int64(), false},
                   Column{"b", Type::Int64(), true}},
                  {}));
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table->Insert({Value::Int64(i), Value::Int64(i % key_mod)})
                    .ok());
  }
  return table;
}

// count(*) per b over `table`, as a HashAggregateOp.
OperatorPtr CountPerKey(const Table* table) {
  std::vector<AggregateSpec> aggs;
  aggs.push_back(AggregateSpec{AggKind::kCountStar, nullptr, "n", false});
  return std::make_unique<HashAggregateOp>(
      std::make_unique<SeqScan>(table),
      std::vector<ExprPtr>{MakeColumnRef(1, "b")},
      std::vector<std::string>{"b"}, std::move(aggs));
}

// probe ⋈ builds[0] ⋈ builds[1] ⋈ ... on b (left-outer, then inner).
OperatorPtr Joins(const Table* probe, std::vector<OperatorPtr> builds) {
  OperatorPtr plan = std::make_unique<SeqScan>(probe);
  for (size_t i = 0; i < builds.size(); ++i) {
    plan = std::make_unique<HashJoinOp>(
        std::move(plan), std::move(builds[i]),
        std::vector<ExprPtr>{MakeColumnRef(1, "b")},
        std::vector<ExprPtr>{MakeColumnRef(0, "b")},
        i == 0 ? JoinType::kLeftOuter : JoinType::kInner);
  }
  return plan;
}

std::vector<OperatorPtr> Builds(const std::function<OperatorPtr()>& make,
                                int n) {
  std::vector<OperatorPtr> builds;
  for (int i = 0; i < n; ++i) builds.push_back(make());
  return builds;
}

// Wraps `plan` in a Gather over `pool` with `threads` workers.
OperatorPtr GatherOn(ThreadPool* pool, OperatorPtr plan, int threads) {
  auto ctx = std::make_shared<ParallelContext>(pool, Opts(threads));
  std::vector<OperatorPtr> workers;
  for (int i = 0; i < threads; ++i) {
    workers.push_back(plan->CloneForWorker(ctx.get()));
    EXPECT_NE(workers.back(), nullptr);
  }
  return std::make_unique<GatherOp>(std::move(plan), std::move(workers),
                                    std::move(ctx));
}

TEST(ParallelHashTableTest, ParallelAggregateBuildSidesFinishOnATwoWorkerPool) {
  // Every build side is a ParallelHashAggregateOp: its Open submits two
  // pool tasks and waits. Run as pool tasks themselves, two such builds
  // would occupy both workers of a 2-thread pool and wait forever on
  // their own partials, so they must stay on the calling thread.
  ThreadPool pool(2);
  auto probe = MakeTable("probe", 3000, 50);
  auto side = MakeTable("side", 4000, 60);
  auto parallel_count = [&]() -> OperatorPtr {
    std::vector<AggregateSpec> aggs;
    aggs.push_back(AggregateSpec{AggKind::kCountStar, nullptr, "n", false});
    auto ctx = std::make_shared<ParallelContext>(&pool, Opts(2));
    auto serial = std::make_unique<SeqScan>(side.get());
    std::vector<OperatorPtr> workers;
    for (int i = 0; i < 2; ++i) {
      workers.push_back(serial->CloneForWorker(ctx.get()));
    }
    return std::make_unique<ParallelHashAggregateOp>(
        std::move(serial), std::move(workers),
        std::vector<ExprPtr>{MakeColumnRef(1, "b")},
        std::vector<std::string>{"b"}, std::move(aggs), std::move(ctx));
  };
  OperatorPtr reference =
      Joins(probe.get(), Builds([&] { return CountPerKey(side.get()); }, 3));
  std::multiset<std::string> expected = Render(Drain(reference.get()));
  ASSERT_FALSE(expected.empty());
  OperatorPtr plan =
      GatherOn(&pool, Joins(probe.get(), Builds(parallel_count, 3)), 2);
  std::future<std::multiset<std::string>> done =
      std::async(std::launch::async, [&] { return Render(Drain(plan.get())); });
  if (done.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
    std::fprintf(stderr, "deadlock: Gather over parallel build sides hung\n");
    std::_Exit(1);
  }
  EXPECT_EQ(done.get(), expected);
}

TEST(ParallelHashTableTest, ConcurrentBuildsReadTheStatementSnapshot) {
  // Serial build sides run as pool tasks; they must read the versions
  // the statement pinned, not whatever a writer published since.
  ThreadPool pool(4);
  auto probe = MakeTable("probe", 2000, 40);
  auto side = MakeTable("side", 2000, 40);
  auto count = [&] { return CountPerKey(side.get()); };
  OperatorPtr reference = Joins(probe.get(), Builds(count, 3));
  std::multiset<std::string> expected = Render(Drain(reference.get()));
  OperatorPtr plan = GatherOn(&pool, Joins(probe.get(), Builds(count, 3)), 4);
  exec::ReadSnapshot snapshot;
  snapshot.Pin(probe.get());
  snapshot.Pin(side.get());
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(side->Insert({Value::Int64(-i), Value::Int64(i % 40)}).ok());
  }
  EXPECT_EQ(Render(Drain(plan.get())), expected);
}

}  // namespace
}  // namespace erbium
