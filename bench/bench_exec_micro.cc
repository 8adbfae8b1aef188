// A2: execution-engine microbenchmarks backing the macro experiments:
// the unnest overhead the paper repeatedly blames ("unnest ... is often
// not optimized in modern RDBMSs"), array functions, and join strategy
// costs (hash build+probe vs index nested loop vs nested loop, and a
// theta join's nested loop over every row pair).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include <random>

#include "exec/aggregate.h"
#include "exec/join.h"
#include "storage/table.h"

namespace erbium {
namespace {

std::vector<Row> MakeArrayRows(size_t n, size_t array_len) {
  std::mt19937_64 rng(7);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Value::ArrayData elements;
    for (size_t k = 0; k < array_len; ++k) {
      elements.push_back(Value::Int64(static_cast<int64_t>(rng() % 1000)));
    }
    rows.push_back({Value::Int64(static_cast<int64_t>(i)),
                    Value::Array(std::move(elements))});
  }
  return rows;
}

std::vector<Column> ArrayCols() {
  return {Column{"id", Type::Int64(), false},
          Column{"arr", Type::Array(Type::Int64()), true}};
}

void BM_UnnestThroughput(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t len = static_cast<size_t>(state.range(1));
  std::vector<Row> rows = MakeArrayRows(n, len);
  for (auto _ : state) {
    UnnestOp unnest(std::make_unique<ValuesOp>(ArrayCols(), rows), 1, "v");
    Status st = unnest.Open();
    if (!st.ok()) return;
    Row row;
    size_t count = 0;
    while (unnest.Next(&row)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * len));
}
BENCHMARK(BM_UnnestThroughput)->Args({10000, 4})->Args({10000, 32});

void BM_ArrayIntersect(benchmark::State& state) {
  std::vector<Row> a = MakeArrayRows(10000, state.range(0));
  ExprPtr intersect = MakeFunction(
      BuiltinFn::kArrayIntersect,
      {MakeColumnRef(1, "arr"), MakeColumnRef(1, "arr")});
  for (auto _ : state) {
    for (const Row& row : a) {
      Value v = intersect->Eval(row);
      benchmark::DoNotOptimize(v);
    }
  }
}
BENCHMARK(BM_ArrayIntersect)->Arg(4)->Arg(32);

void BM_ArrayContains(benchmark::State& state) {
  std::vector<Row> a = MakeArrayRows(10000, 8);
  ExprPtr contains = MakeFunction(
      BuiltinFn::kArrayContains,
      {MakeColumnRef(1, "arr"), MakeLiteral(Value::Int64(500))});
  for (auto _ : state) {
    for (const Row& row : a) {
      Value v = contains->Eval(row);
      benchmark::DoNotOptimize(v);
    }
  }
}
BENCHMARK(BM_ArrayContains);

std::unique_ptr<Table> MakeKeyedTable(size_t n) {
  auto table = std::make_unique<Table>(
      TableSchema("t", {Column{"k", Type::Int64(), false},
                        Column{"v", Type::Int64(), true}},
                  {0}));
  Status st = table->CreateIndex("pk", {"k"}, true);
  (void)st;
  for (size_t i = 0; i < n; ++i) {
    auto inserted = table->Insert({Value::Int64(static_cast<int64_t>(i)),
                                   Value::Int64(static_cast<int64_t>(i))});
    (void)inserted;
  }
  return table;
}

std::vector<Row> ProbeRows(size_t n) {
  std::vector<Row> rows;
  std::mt19937_64 rng(11);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(static_cast<int64_t>(rng() % n))});
  }
  return rows;
}

void BM_HashJoinBuildProbe(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto table = MakeKeyedTable(n);
  std::vector<Row> probes = ProbeRows(n);
  std::vector<Column> probe_cols{Column{"k", Type::Int64(), false}};
  for (auto _ : state) {
    HashJoinOp join(std::make_unique<ValuesOp>(probe_cols, probes),
                    std::make_unique<SeqScan>(table.get()),
                    {MakeColumnRef(0, "k")}, {MakeColumnRef(0, "k")});
    Status st = join.Open();
    if (!st.ok()) return;
    Row row;
    size_t count = 0;
    while (join.Next(&row)) ++count;
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_HashJoinBuildProbe)->Arg(10000)->Arg(100000);

void BM_IndexJoinProbe(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto table = MakeKeyedTable(n);
  std::vector<Row> probes = ProbeRows(n);
  std::vector<Column> probe_cols{Column{"k", Type::Int64(), false}};
  for (auto _ : state) {
    IndexJoinOp join(std::make_unique<ValuesOp>(probe_cols, probes),
                     table.get(), {MakeColumnRef(0, "k")}, {0});
    Status st = join.Open();
    if (!st.ok()) return;
    Row row;
    size_t count = 0;
    while (join.Next(&row)) ++count;
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_IndexJoinProbe)->Arg(10000)->Arg(100000);

void BM_HashAggregateGroups(benchmark::State& state) {
  size_t n = 100000;
  size_t groups = static_cast<size_t>(state.range(0));
  std::vector<Row> rows;
  rows.reserve(n);
  std::mt19937_64 rng(13);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(static_cast<int64_t>(rng() % groups)),
                    Value::Int64(static_cast<int64_t>(i))});
  }
  std::vector<Column> cols{Column{"g", Type::Int64(), false},
                           Column{"v", Type::Int64(), true}};
  for (auto _ : state) {
    std::vector<AggregateSpec> aggs;
    aggs.push_back({AggKind::kSum, MakeColumnRef(1, "v"), "s", false});
    HashAggregateOp agg(std::make_unique<ValuesOp>(cols, rows),
                        {MakeColumnRef(0, "g")}, {"g"}, std::move(aggs));
    Status st = agg.Open();
    if (!st.ok()) return;
    Row row;
    size_t count = 0;
    while (agg.Next(&row)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HashAggregateGroups)->Arg(16)->Arg(10000);

void BM_PointLookupViaIndex(benchmark::State& state) {
  auto table = MakeKeyedTable(100000);
  std::mt19937_64 rng(17);
  for (auto _ : state) {
    IndexKey key{Value::Int64(static_cast<int64_t>(rng() % 100000))};
    std::vector<RowId> hits;
    table->LookupEqual({0}, key, &hits);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_PointLookupViaIndex);

void BM_PointLookupViaScan(benchmark::State& state) {
  // The no-index path (the 145x gap of E3 in micro form).
  auto table = std::make_unique<Table>(
      TableSchema("t", {Column{"k", Type::Int64(), false},
                        Column{"v", Type::Int64(), true}},
                  {0}));
  for (size_t i = 0; i < 100000; ++i) {
    auto inserted = table->Insert({Value::Int64(static_cast<int64_t>(i)),
                                   Value::Int64(0)});
    (void)inserted;
  }
  std::mt19937_64 rng(19);
  for (auto _ : state) {
    IndexKey key{Value::Int64(static_cast<int64_t>(rng() % 100000))};
    std::vector<RowId> hits;
    table->LookupEqual({0}, key, &hits);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_PointLookupViaScan);

// A theta join has no equi-key, so it runs as a nested loop over every
// row pair: the count of R x S pairs with r_a1 < s_a1 at 1,500 R / 400 S
// (600,000 pairs), serial.
void BM_NestedLoopThetaJoinCount(benchmark::State& state) {
  static MappedDatabase* db = [] {
    Figure4Config config;
    config.num_r = 1500;
    config.num_s = 400;
    auto* schema = new std::shared_ptr<ERSchema>;
    auto made = MakeFigure4Database(Figure4M1(), config, schema);
    if (!made.ok()) std::abort();
    return std::move(made).value().release();
  }();
  for (auto _ : state) {
    auto result = erql::QueryEngine::Execute(
        db, "SELECT count(*) AS n FROM R r JOIN S s ON r.r_a1 < s.s_a1",
        ExecOptions::Serial());
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->rows.data());
  }
}
BENCHMARK(BM_NestedLoopThetaJoinCount)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace erbium

ERBIUM_BENCH_MAIN("exec_micro");
