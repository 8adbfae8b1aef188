// The traced run (--trace 1): per-layer metrics, timed from outside by
// calling each module's public entry points on the workload's statement
// stream. Every traced run reports the full per-layer set:
//
//   server      rtt / footer queue_wait + execute / wire remainder, loop lag
//               — the workload's own connections, one statement per
//               ExecuteBatch so each reply carries the ServerTiming footer
//   api         StatementRunner::Execute on an identically built runner;
//               statement lock waits
//   erql        Parser::Parse, QueryEngine::Compile, QueryEngine::Execute
//               with a default-capacity plan cache; plan-cache hit ratio and
//               evictions over the server phase
//   exec        each analytic E-query's precompiled plan: Open/Next time at
//               the default thread count, rows out, and 1-thread speed-up
//   mapping     INSERT through a non-attached runner
//   storage     index probes per statement over the server phase
//   durability  WalWriter::Append with fdatasync; WAL bytes per record;
//               replay rate of a reopened attached directory
//   obs         QueryTelemetry::Record and WorkloadProfile::RecordStatement
//   host        /proc/stat steal share over the run
//
// Per-statement check: the footer's queue_wait + execute never exceeds
// the client-observed round trip; a violation counts as a failure.

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "durability/wal.h"
#include "erql/parser.h"
#include "erql/query_engine.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/workload_profile.h"
#include "perfbench/common.h"

namespace erbium {
namespace perfbench {
namespace {

constexpr int kIngestTracePerConnection = 500;
constexpr int kMappingInserts = 2000;
constexpr int kWalAppends = 300;
constexpr int kReplayInserts = 4000;
constexpr int kExecReps = 3;
constexpr int kObsCalls = 4000;
constexpr int kObsBatches = 5;

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Registry values the traced run diffs around a phase.
struct Counters {
  uint64_t hits, misses, evictions, index_probes, lock_contended;
  uint64_t wal_bytes, wal_appends, replayed;
  obs::HistogramSnapshot loop_lag, lock_wait;

  static Counters Read() {
    obs::RegistrySnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    auto counter = [&](const std::string& name) -> uint64_t {
      auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second;
    };
    auto histogram = [&](const std::string& name) {
      auto it = snap.histograms.find(name);
      return it == snap.histograms.end() ? obs::HistogramSnapshot()
                                         : it->second;
    };
    Counters c;
    c.hits = counter("plan_cache.hits");
    c.misses = counter("plan_cache.misses");
    c.evictions = counter("plan_cache.evictions");
    c.lock_contended = counter("statement.lock_contended");
    c.wal_bytes = counter("wal.bytes");
    c.wal_appends = counter("wal.appends");
    c.replayed = counter("recovery.records_replayed");
    c.index_probes = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("index.", 0) == 0 && name.size() > 7 &&
          name.compare(name.size() - 7, 7, ".probes") == 0) {
        c.index_probes += value;
      }
    }
    c.loop_lag = histogram("server.loop.lag_us");
    c.lock_wait = histogram("statement.lock_wait_us");
    return c;
  }
};

double MeanDelta(const obs::HistogramSnapshot& before,
                 const obs::HistogramSnapshot& after) {
  uint64_t n = after.count - before.count;
  return n == 0 ? 0.0 : (after.sum - before.sum) / static_cast<double>(n);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// The workload's statement stream, one generator per connection.
class Stream {
 public:
  Stream(const Args& args, int conn, int conns)
      : workload_(args.workload),
        point_(args.seed, conn),
        ingest_(args.seed, conn, conns),
        next_query_(args.seed % AnalyticQueries().size()) {}

  std::string Next() {
    if (workload_ == "point_lookup") return point_.Next().text;
    if (workload_ == "analytic") {
      const auto& queries = AnalyticQueries();
      return queries[next_query_++ % queries.size()].text;
    }
    return ingest_.Next().text;
  }
  /// The SELECTs of the stream: ingest_durable contributes the read-backs
  /// of its inserts.
  std::string NextSelect() {
    if (workload_ == "ingest_durable") return ReadBackText(ingest_.Next());
    return Next();
  }

 private:
  std::string workload_;
  PointStream point_;
  IngestStream ingest_;
  size_t next_query_;
};

bool IsIngest(const Args& args) { return args.workload == "ingest_durable"; }

std::string ScratchDir(const Args& args, const std::string& name) {
  std::string dir = args.workdir + "/trace-" + name + "-" +
                    std::to_string(getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

// ---- server ----------------------------------------------------------------------

void ServerPhase(const Args& args, uint64_t budget_ns, RunResult* out) {
  const int conns = ConnectionsFor(args.workload);
  const std::string dir = ScratchDir(args, "server");
  auto server = StartServer(IsIngest(args) ? IngestServerOptions(dir)
                                           : ReadServerOptions());
  auto clients = Connect(server.get(), conns, "perfbench-trace");

  struct Sample {
    double rtt, queue_wait, execute;
  };
  std::vector<std::vector<Sample>> samples(conns);
  std::atomic<uint64_t> failed{0}, violations{0};
  Counters before = Counters::Read();
  const uint64_t deadline = NowNs() + budget_ns;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Stream stream(args, c, conns);
      for (int i = 0; NowNs() < deadline; ++i) {
        if (IsIngest(args) && i == kIngestTracePerConnection) break;
        std::string text = stream.Next();
        uint64_t t0 = NowNs();
        auto batch = clients[c]->ExecuteBatch({text});
        double rtt = Us(NowNs() - t0);
        if (!batch.ok() || batch->size() != 1 || !(*batch)[0].status.ok() ||
            !(*batch)[0].timing.present) {
          failed.fetch_add(1);
          continue;
        }
        const server::ServerTiming& timing = (*batch)[0].timing;
        Sample s{rtt, static_cast<double>(timing.queue_wait_us),
                 static_cast<double>(timing.execute_us)};
        if (s.queue_wait + s.execute > rtt) violations.fetch_add(1);
        samples[c].push_back(s);
      }
    });
  }
  for (auto& t : threads) t.join();
  Counters after = Counters::Read();
  clients.clear();
  server.reset();
  std::filesystem::remove_all(dir);

  std::vector<double> rtt, queue_wait, execute, wire;
  for (const auto& per_conn : samples) {
    for (const Sample& s : per_conn) {
      rtt.push_back(s.rtt);
      queue_wait.push_back(s.queue_wait);
      execute.push_back(s.execute);
      wire.push_back(s.rtt - s.queue_wait - s.execute);
    }
  }
  const double ops = static_cast<double>(rtt.size());
  out->attempted += rtt.size() + failed.load();
  out->failed += failed.load() + violations.load();
  Info("server phase: " + std::to_string(rtt.size()) + " statements, " +
       std::to_string(violations.load()) +
       " with queue_wait + execute > rtt");

  out->Add("server.rtt_us", Percentile(rtt, 0.5), "us");
  out->Add("server.queue_wait_us", Percentile(queue_wait, 0.5), "us");
  out->Add("server.execute_us", Percentile(execute, 0.5), "us");
  out->Add("server.wire_us", Percentile(wire, 0.5), "us");
  out->Add("server.loop_lag_us", MeanDelta(before.loop_lag, after.loop_lag),
           "us");
  out->Add("server.rtt_p90_us", Percentile(rtt, 0.9), "us");
  out->Add("api.lock_wait_us",
           Ratio(after.lock_wait.sum - before.lock_wait.sum,
                 static_cast<double>(after.lock_contended -
                                     before.lock_contended)),
           "us");
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  out->Add("erql.plan_cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  out->Add("erql.plan_cache.evictions_per_op",
           Ratio(static_cast<double>(after.evictions - before.evictions), ops),
           "count");
  out->Add("storage.index_probes_per_op",
           Ratio(static_cast<double>(after.index_probes - before.index_probes),
                 ops),
           "count");
}

// ---- api + erql ------------------------------------------------------------------

/// p50 of `op` over the stream until `count` calls or the deadline.
template <typename Op>
double TimeP50(int count, uint64_t deadline, RunResult* out, Op op) {
  std::vector<double> us;
  for (int i = 0; i < count && (i == 0 || NowNs() < deadline); ++i) {
    uint64_t t0 = NowNs();
    bool ok = op(i);
    us.push_back(Us(NowNs() - t0));
    ++out->attempted;
    if (!ok) ++out->failed;
  }
  return Percentile(us, 0.5);
}

void ApiPhase(const Args& args, uint64_t budget_ns, RunResult* out) {
  const std::string dir = ScratchDir(args, "api");
  auto runner = api::StatementRunner::Create(
      IsIngest(args) ? SchemaRunnerOptions(dir) : ReadServerOptions().runner);
  if (!runner.ok()) Die("runner build failed: " + runner.status().ToString());
  Stream stream(args, 0, 1);
  const int count = IsIngest(args) ? kIngestTracePerConnection : 1 << 30;
  out->Add("api.execute_us",
           TimeP50(count, NowNs() + budget_ns, out,
                   [&](int) { return (*runner)->Execute(stream.Next()).ok(); }),
           "us");
  runner->reset();
  std::filesystem::remove_all(dir);
}

void ErqlPhase(const Args& args, MappedDatabase* db, uint64_t budget_ns,
               RunResult* out) {
  // Analytic statements are whole queries: one pass over the list each.
  const int count = args.workload == "analytic"
                        ? static_cast<int>(AnalyticQueries().size())
                        : 1 << 30;
  std::vector<std::string> texts;
  Stream stream(args, 0, 1);
  const uint64_t slice = budget_ns / 3;
  out->Add("erql.parse_us",
           TimeP50(count, NowNs() + slice, out,
                   [&](int i) {
                     texts.push_back(stream.NextSelect());
                     return erql::Parser::Parse(texts[i]).ok();
                   }),
           "us");
  const int n = static_cast<int>(texts.size());
  out->Add("erql.compile_us",
           TimeP50(n, NowNs() + slice, out,
                   [&](int i) {
                     return erql::QueryEngine::Compile(db, texts[i]).ok();
                   }),
           "us");
  erql::PlanCache cache;
  out->Add("erql.engine_execute_us",
           TimeP50(n, NowNs() + slice, out,
                   [&](int i) {
                     return erql::QueryEngine::Execute(db, texts[i],
                                                       ExecOptions::Default(),
                                                       &cache, 1)
                         .ok();
                   }),
           "us");
}

// ---- exec ------------------------------------------------------------------------

void ExecPhase(MappedDatabase* db, RunResult* out) {
  for (const AnalyticQuery& q : AnalyticQueries()) {
    auto run = [&](const ExecOptions& opts, size_t* rows) {
      auto compiled = erql::QueryEngine::Compile(db, q.text, opts);
      if (!compiled.ok()) Die(std::string("compile failed: ") + q.name);
      std::vector<double> us;
      for (int r = 0; r < kExecReps; ++r) {
        uint64_t t0 = NowNs();
        if (!compiled->plan->Open().ok()) Die(std::string("open: ") + q.name);
        Row row;
        *rows = 0;
        while (compiled->plan->Next(&row)) ++*rows;
        us.push_back(Us(NowNs() - t0));
      }
      return Median(us);
    };
    size_t rows_default = 0, rows_serial = 0;
    double default_us = run(ExecOptions::Default(), &rows_default);
    double serial_us = run(ExecOptions::Serial(), &rows_serial);
    out->attempted += 2;
    if (rows_default != rows_serial) ++out->failed;
    const std::string suffix = std::string(".") + q.name;
    out->Add("exec.run_us" + suffix, default_us, "us");
    out->Add("exec.rows_out" + suffix, static_cast<double>(rows_default),
             "count");
    out->Add("exec.parallel_speedup" + suffix, Ratio(serial_us, default_us),
             "ratio");
  }
}

// ---- mapping + durability --------------------------------------------------------

void MappingPhase(const Args& args, RunResult* out) {
  api::StatementRunner::Options options = SchemaRunnerOptions("");
  auto runner = api::StatementRunner::Create(options);
  if (!runner.ok()) Die("runner build failed: " + runner.status().ToString());
  IngestStream stream(args.seed, 0, 1);
  out->Add("mapping.insert_us",
           TimeP50(kMappingInserts, ~0ULL, out,
                   [&](int) {
                     return (*runner)->Execute(stream.Next().text).ok();
                   }),
           "us");
}

void DurabilityPhase(const Args& args, RunResult* out) {
  // Single appender, fdatasync per record, on a scratch WAL file.
  const std::string wal_dir = ScratchDir(args, "wal");
  std::filesystem::create_directories(wal_dir);
  auto wal = durability::WalWriter::Open(
      wal_dir + "/wal.erblog", 0, 1, durability::WalWriter::SyncMode::kFsync,
      nullptr);
  if (!wal.ok()) Die("wal open failed: " + wal.status().ToString());
  IngestStream stream(args.seed, 0, 1);
  Counters before = Counters::Read();
  double append_us = TimeP50(kWalAppends, ~0ULL, out, [&](int) {
    IngestStatement s = stream.Next();
    durability::WalRecord record;
    record.type = durability::WalRecord::Type::kInsertEntity;
    record.name = s.cls;
    Value::StructData fields;
    fields.emplace_back(s.cls == "S" ? "s_id" : "r_id", Value::Int64(s.key));
    fields.emplace_back(s.cls == "S" ? "s_a1" : "r_a1", Value::Int64(s.a1));
    fields.emplace_back(s.cls == "S" ? "s_a2" : "r_a3", Value::String(s.text));
    record.value = Value::Struct(std::move(fields));
    return (*wal)->Append(std::move(record)).ok();
  });
  Counters after = Counters::Read();
  wal->reset();
  std::filesystem::remove_all(wal_dir);
  out->Add("durability.wal_append_us", append_us, "us");
  out->Add("durability.wal_bytes_per_row",
           Ratio(static_cast<double>(after.wal_bytes - before.wal_bytes),
                 static_cast<double>(after.wal_appends - before.wal_appends)),
           "B");

  // Replay rate: ingest-stream inserts into an attached directory, closed
  // without a checkpoint, then reopened.
  const std::string dir = ScratchDir(args, "replay");
  api::StatementRunner::Options options = SchemaRunnerOptions(dir);
  options.sync = durability::WalWriter::SyncMode::kNone;
  {
    auto runner = api::StatementRunner::Create(options);
    if (!runner.ok()) Die("attach failed: " + runner.status().ToString());
    IngestStream inserts(args.seed, 1, 2);
    for (int i = 0; i < kReplayInserts; ++i) {
      ++out->attempted;
      if (!(*runner)->Execute(inserts.Next().text).ok()) ++out->failed;
    }
  }
  before = Counters::Read();
  uint64_t t0 = NowNs();
  auto reopened = api::StatementRunner::Create(options);
  double reopen_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!reopened.ok()) Die("reopen failed: " + reopened.status().ToString());
  after = Counters::Read();
  reopened->reset();
  std::filesystem::remove_all(dir);
  out->Add("durability.replay_records_per_s",
           Ratio(static_cast<double>(after.replayed - before.replayed),
                 reopen_s),
           "1/s");
}

// ---- obs -------------------------------------------------------------------------

void ObsPhase(MappedDatabase* db, RunResult* out) {
  const std::string text = PointStream::Text(42, 0);
  auto compiled = erql::QueryEngine::Compile(db, text);
  if (!compiled.ok() || compiled->footprint == nullptr) {
    Die("compile failed: " + text);
  }
  compiled->footprint->shape = obs::NormalizeShape(text);
  auto per_call_ns = [&](auto call) {
    std::vector<double> batches;
    for (int b = 0; b < kObsBatches; ++b) {
      uint64_t t0 = NowNs();
      for (int i = 0; i < kObsCalls; ++i) call();
      batches.push_back(static_cast<double>(NowNs() - t0) / kObsCalls);
    }
    return Median(batches);
  };
  out->Add("obs.telemetry_record_ns", per_call_ns([&] {
             obs::QueryRecord record;
             record.text = text;
             record.kind = "select";
             record.mapping = "m1";
             record.wall_ns = 5000;
             record.rows_out = 1;
             obs::QueryTelemetry::Global().Record(std::move(record));
           }),
           "ns");
  out->Add("obs.profile_record_ns", per_call_ns([&] {
             obs::WorkloadProfile::Global().RecordStatement(
                 compiled->footprint.get(), "select", text, 5000);
           }),
           "ns");
}

}  // namespace

RunResult RunTraced(const Args& args) {
  RunResult out;
  const CpuTicks ticks0 = ReadCpuTicks();
  const uint64_t budget = static_cast<uint64_t>(args.seconds) * 1'000'000'000ULL;
  {
    // As in the timed run: point_lookup's server and clients share a CPU.
    CpuPin cpu_pin(PinnedToOneCpu(args.workload));
    ServerPhase(args, budget / 2, &out);
  }
  ApiPhase(args, budget / 4, &out);
  {
    std::shared_ptr<ERSchema> schema;
    auto db = MakeFigure4Database(Figure4M1(), BenchFigure4(), &schema);
    if (!db.ok()) Die("database build failed: " + db.status().ToString());
    ErqlPhase(args, db->get(), budget / 4, &out);
    ExecPhase(db->get(), &out);
    ObsPhase(db->get(), &out);
  }
  MappingPhase(args, &out);
  DurabilityPhase(args, &out);
  out.Add("host.steal_pct", StealPct(ticks0, ReadCpuTicks()), "%");
  return out;
}

}  // namespace perfbench
}  // namespace erbium
