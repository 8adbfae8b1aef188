// Durability overhead and recovery speed: WAL-attached insert throughput
// against the in-memory baseline (per sync mode), checkpoint cost, and
// recovery time as a function of WAL length. Run e.g.
//
//   ./bench/bench_durability --benchmark_format=console
//
// kFsync numbers are dominated by the device's flush latency; kNone shows
// the pure logging overhead (encode + write(2)) that every acknowledged
// logical CRUD op pays. BM_Crc32 measures the checksum alone.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "durability/durable_db.h"
#include "durability/serde.h"
#include "workload/figure4.h"

namespace erbium {
namespace bench {
namespace {

using durability::DurableDatabase;
using durability::WalWriter;

std::string BenchDir() {
  return std::filesystem::temp_directory_path().string() +
         "/erbium_bench_durability";
}

Value REntity(int64_t id) {
  Value::StructData fields;
  fields.emplace_back("r_id", Value::Int64(id));
  fields.emplace_back("r_a1", Value::Int64(id * 3));
  fields.emplace_back("r_a2", Value::Float64(1.5 * static_cast<double>(id)));
  fields.emplace_back("r_a3", Value::String("row-" + std::to_string(id)));
  fields.emplace_back("r_a4", Value::Int64(id % 7));
  fields.emplace_back(
      "r_mv1", Value::Array({Value::Int64(id), Value::Int64(id + 1)}));
  return Value::Struct(std::move(fields));
}

// Insert throughput with no WAL attached: the in-memory baseline.
void BM_InsertInMemory(benchmark::State& state) {
  auto schema = std::make_shared<ERSchema>();
  auto made = MakeFigure4Schema();
  if (!made.ok()) { state.SkipWithError("schema failed"); return; }
  *schema = std::move(made).value();
  auto db = MappedDatabase::Create(schema.get(), Figure4M1());
  if (!db.ok()) { state.SkipWithError("create failed"); return; }
  int64_t id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*db)->InsertEntity("R", REntity(id++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertInMemory);

// Insert throughput with the WAL attached, per sync mode. Arg(0) = kNone
// (write only), Arg(1) = kFsync (flush every append).
void BM_InsertDurable(benchmark::State& state) {
  std::string dir = BenchDir();
  std::filesystem::remove_all(dir);
  DurableDatabase::Options options;
  options.spec = Figure4M1();
  options.initial_ddl = Figure4Ddl();
  options.sync = state.range(0) == 0 ? WalWriter::SyncMode::kNone
                                     : WalWriter::SyncMode::kFsync;
  auto db = DurableDatabase::Open(dir, std::move(options));
  if (!db.ok()) { state.SkipWithError("open failed"); return; }
  int64_t id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*db)->db()->InsertEntity("R", REntity(id++)));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["wal_bytes"] =
      static_cast<double>((*db)->wal_bytes()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_InsertDurable)->Arg(0)->Arg(1);

// Checkpoint cost at a given number of live rows.
void BM_Checkpoint(benchmark::State& state) {
  std::string dir = BenchDir();
  std::filesystem::remove_all(dir);
  DurableDatabase::Options options;
  options.spec = Figure4M1();
  options.initial_ddl = Figure4Ddl();
  auto db = DurableDatabase::Open(dir, std::move(options));
  if (!db.ok()) { state.SkipWithError("open failed"); return; }
  for (int64_t id = 1; id <= state.range(0); ++id) {
    if (!(*db)->db()->InsertEntity("R", REntity(id)).ok()) {
      state.SkipWithError("insert failed");
      return;
    }
  }
  for (auto _ : state) {
    auto summary = (*db)->Checkpoint();
    if (!summary.ok()) { state.SkipWithError("checkpoint failed"); return; }
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Checkpoint)->Arg(1000)->Arg(10000);

// Recovery (open) time with a WAL of N insert records and no snapshot —
// the worst case: every record replays through the logical choke points.
void BM_RecoverFromWal(benchmark::State& state) {
  std::string dir = BenchDir();
  std::filesystem::remove_all(dir);
  {
    DurableDatabase::Options options;
    options.spec = Figure4M1();
    options.initial_ddl = Figure4Ddl();
    auto db = DurableDatabase::Open(dir, std::move(options));
    if (!db.ok()) { state.SkipWithError("open failed"); return; }
    for (int64_t id = 1; id <= state.range(0); ++id) {
      if (!(*db)->db()->InsertEntity("R", REntity(id)).ok()) {
        state.SkipWithError("insert failed");
        return;
      }
    }
  }
  for (auto _ : state) {
    DurableDatabase::Options options;
    options.spec = Figure4M1();
    options.initial_ddl = Figure4Ddl();
    auto reopened = DurableDatabase::Open(dir, std::move(options));
    if (!reopened.ok() ||
        (*reopened)->recovery_info().records_replayed !=
            static_cast<size_t>(state.range(0))) {
      state.SkipWithError("recovery failed");
      return;
    }
  }
  state.counters["records"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RecoverFromWal)->Arg(1000)->Arg(10000);

// CRC-32 throughput over one buffer: the checksum of every WAL record,
// snapshot and wire frame.
void BM_Crc32(benchmark::State& state) {
  std::string bytes(static_cast<size_t>(state.range(0)), '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(durability::Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(2 << 20);

}  // namespace
}  // namespace bench
}  // namespace erbium

ERBIUM_BENCH_MAIN("durability");
