// Morsel-parallel speedup on the Figure 4 workload: the same query
// compiled serial (1 thread) and parallel (2/4/8 threads), so the ratio
// between the Arg(1) row and the others is the speedup. The large
// scan-filter-aggregate case is the headline number; run at scale, e.g.
//
//   ERBIUM_BENCH_SCALE=100000 ./bench/bench_parallel --benchmark_format=json
//
// On machines with fewer cores than the thread count, extra workers are
// oversubscribed and the curve flattens accordingly.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "exec/parallel.h"

namespace erbium {
namespace bench {
namespace {

ExecOptions ThreadedOpts(int threads) {
  ExecOptions opts;
  opts.num_threads = threads;
  // Benchmarks compare serial vs parallel directly; never fall back.
  opts.parallel_row_threshold = 0;
  return opts;
}

void RunThreaded(benchmark::State& state, const MappingSpec& spec,
                 const std::string& query) {
  int threads = static_cast<int>(state.range(0));
  RunQueryBenchmark(state, spec, query, ThreadedOpts(threads));
  state.counters["threads"] = threads;
}

// Large scan + filter + grouped aggregate: the acceptance workload.
void BM_ScanFilterAggregate(benchmark::State& state) {
  RunThreaded(state, Figure4M2(),
              "SELECT r_a4, count(*) AS n, sum(r_a1) AS total, min(r_a1) "
              "AS lo, max(r_a1) AS hi FROM R WHERE r_a1 < 800");
}
BENCHMARK(BM_ScanFilterAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Plain parallel scan through the gather exchange (row-movement bound).
void BM_FilteredScan(benchmark::State& state) {
  RunThreaded(state, Figure4M2(),
              "SELECT r_id, r_a1, r_a4 FROM R WHERE r_a4 < 3");
}
BENCHMARK(BM_FilteredScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Relationship hash join: shared serial builds + parallel probe.
void BM_RelationshipJoin(benchmark::State& state) {
  RunThreaded(state, Figure4M1(),
              "SELECT r.r_id, s.s_id, rs_a1 FROM R r JOIN S s ON RS "
              "WHERE s.s_a1 < 5000");
}
BENCHMARK(BM_RelationshipJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Join feeding an aggregate (probe-heavy, small output).
void BM_JoinAggregate(benchmark::State& state) {
  RunThreaded(state, Figure4M1(),
              "SELECT r.r_id, sum(rs_a1) AS total FROM R r JOIN S s ON RS");
}
BENCHMARK(BM_JoinAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace bench
}  // namespace erbium

ERBIUM_BENCH_MAIN("parallel");
