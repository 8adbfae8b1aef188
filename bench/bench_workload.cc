// Workload profiler overhead on the point-read hot path: the same
// single-row lookup driven through QueryEngine::Execute (the full
// telemetry + profile feed) with capture enabled vs disabled. The
// profiler performs no clock reads of its own — statement wall time
// arrives from the engine's existing measurement — so the A/B delta is
// bounded by one mutex acquisition and a few map updates per statement,
// and must stay within run-to-run noise.
//
// A third microbenchmark prices one RecordStatement call in isolation
// (private profile, realistic point-lookup footprint), the number the
// per-statement budget in DESIGN.md quotes.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include <string>

#include "erql/query_engine.h"
#include "obs/workload_profile.h"

namespace erbium {
namespace {

void RunPointRead(benchmark::State& state, bool profiler_enabled) {
  MappedDatabase* db = bench::GetDatabase(Figure4M1());
  obs::WorkloadProfile& profile = obs::WorkloadProfile::Global();
  bool was_enabled = profile.enabled();
  profile.set_enabled(profiler_enabled);
  const std::string query = "SELECT r_a1 FROM R WHERE r_id = 42";
  for (auto _ : state) {
    auto result = erql::QueryEngine::Execute(db, query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->rows);
  }
  profile.set_enabled(was_enabled);
  state.counters["capture"] = profiler_enabled ? 1 : 0;
}

void BM_PointReadProfilerOn(benchmark::State& state) {
  RunPointRead(state, /*profiler_enabled=*/true);
}
BENCHMARK(BM_PointReadProfilerOn);

void BM_PointReadProfilerOff(benchmark::State& state) {
  RunPointRead(state, /*profiler_enabled=*/false);
}
BENCHMARK(BM_PointReadProfilerOff);

// One RecordStatement against a private profile: the marginal cost the
// engine pays per profiled statement once the plan is compiled (cache
// hit path — the footprint is shared, nothing is re-derived).
void BM_RecordStatementCost(benchmark::State& state) {
  obs::WorkloadProfile profile(128);
  obs::StatementFootprint footprint;
  footprint.shape = "select r_a1 from r where r_id = ?";
  footprint.entities.push_back({"R", obs::EntityPath::kProbe});
  footprint.attributes.push_back({"R", "r_a1", false});
  footprint.attributes.push_back({"R", "r_id", true});
  const std::string text = "SELECT r_a1 FROM R WHERE r_id = 42";
  for (auto _ : state) {
    profile.RecordStatement(&footprint, "select", text, 1000);
  }
  state.counters["statements"] =
      static_cast<double>(profile.Snapshot().statements);
}
BENCHMARK(BM_RecordStatementCost);

}  // namespace
}  // namespace erbium

ERBIUM_BENCH_MAIN("workload");
