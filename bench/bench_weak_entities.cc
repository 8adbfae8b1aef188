// Experiments E7–E8 (paper Section 6, weak-entity block): M1 (weak
// entity sets in their own tables) vs M5 (folded into the owner as
// arrays of composites).
//
//   E7  all information across S, S1, S2 for a batch of s_ids —
//       paper: M1 ~2.2x slower (extra joins).
//   E8  join S1 with R (through R2S1) — paper: M5 ~4x slower (unnesting
//       the folded composite arrays).

#include "bench/bench_util.h"

namespace erbium {
namespace bench {
namespace {

std::string InListOfSids(int count) {
  // Deterministic id sample, comma-separated.
  std::string out;
  int num_s = BenchConfig().num_s;
  int step = std::max(1, num_s / count);
  for (int i = 1; i <= num_s && count > 0; i += step, --count) {
    if (!out.empty()) out += ", ";
    out += std::to_string(i);
  }
  return out;
}

void BM_E7_BatchOwnerAndWeak(benchmark::State& state,
                             const MappingSpec& spec) {
  // The paper used 10000 s_ids on a 5M-row database; scale the batch
  // with our num_s (about a third of all owners).
  std::string ids = InListOfSids(BenchConfig().num_s / 3);
  std::string query =
      "SELECT s.s_id, s.s_a1, s.s_a2, s1.s1_no, s1.s1_a1, s1.s1_a2 "
      "FROM S s JOIN S1 s1 ON S_S1 WHERE s.s_id IN (" + ids + ")";
  RunQueryBenchmark(state, spec, query);
}
BENCHMARK_CAPTURE(BM_E7_BatchOwnerAndWeak, M1, Figure4M1());
BENCHMARK_CAPTURE(BM_E7_BatchOwnerAndWeak, M5, Figure4M5());

/// One owner's weak instances through the mapping-native plan (as in
/// E4b): M1 probes the weak set's owner-key index, M5 looks the owner
/// row up and unnests its folded array.
OperatorPtr OwnedWeak(MappedDatabase* db, const std::string& weak,
                      const Value& owner_id) {
  std::vector<ExprPtr> key{MakeLiteral(owner_id)};
  if (const Table* table = db->catalog().GetTable(weak)) {
    return std::make_unique<IndexLookup>(table, std::vector<int>{0},
                                         std::move(key));
  }
  const Table* owner = db->catalog().GetTable("S");
  return std::make_unique<UnnestOp>(
      std::make_unique<IndexLookup>(owner, std::vector<int>{0},
                                    std::move(key)),
      owner->schema().ColumnIndex(weak), weak + "_element");
}

void BM_E7b_PointEntityAssembly(benchmark::State& state,
                                const MappingSpec& spec) {
  // Latency view of E7: assemble one owner together with both of its
  // weak entity sets, as a reactive application would. Under M1 this is
  // three index probes (S, S1-by-owner, S2-by-owner); under M5 the
  // owner row already contains everything.
  MappedDatabase* db = GetDatabase(spec);
  int64_t num_s = BenchConfig().num_s;
  int64_t id = 1;
  for (auto _ : state) {
    id = id % num_s + 1;
    IndexKey key{Value::Int64(id)};
    auto s = db->LookupEntity("S", key, {"s_a1", "s_a2"});
    if (!s.ok()) {
      state.SkipWithError("lookup failed");
      return;
    }
    OperatorPtr s1 = OwnedWeak(db, "S1", key[0]);
    OperatorPtr s2 = OwnedWeak(db, "S2", key[0]);
    for (Operator* op : {s->get(), s1.get(), s2.get()}) {
      auto rows = CollectRows(op);
      benchmark::DoNotOptimize(rows);
    }
  }
}
BENCHMARK_CAPTURE(BM_E7b_PointEntityAssembly, M1, Figure4M1());
BENCHMARK_CAPTURE(BM_E7b_PointEntityAssembly, M5, Figure4M5());

void BM_E8_JoinWeakWithR(benchmark::State& state, const MappingSpec& spec) {
  RunQueryBenchmark(state, spec,
                    "SELECT r.r_id, r.r2_a1, s1.s1_a1 "
                    "FROM R2 r JOIN S1 s1 ON R2S1");
}
BENCHMARK_CAPTURE(BM_E8_JoinWeakWithR, M1, Figure4M1());
BENCHMARK_CAPTURE(BM_E8_JoinWeakWithR, M5, Figure4M5());

void BM_E8b_WeakEntityScan(benchmark::State& state,
                           const MappingSpec& spec) {
  // The raw unnest cost: scanning all S1 instances.
  RunQueryBenchmark(state, spec,
                    "SELECT s_id, s1_no, s1_a1, s1_a2 FROM S1");
}
BENCHMARK_CAPTURE(BM_E8b_WeakEntityScan, M1, Figure4M1());
BENCHMARK_CAPTURE(BM_E8b_WeakEntityScan, M5, Figure4M5());

}  // namespace
}  // namespace bench
}  // namespace erbium

ERBIUM_BENCH_MAIN("weak_entities");
