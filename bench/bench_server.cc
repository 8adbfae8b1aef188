// Network server scenarios that the repo benchmark (perfbench/) does not
// cover: the result-frame encode and decode of E1's 20,000-row response,
// pipelined point reads (16-statement batches per round-trip),
// point reads under a writer stream and under CHECKPOINT, a
// 1000-connection idle+burst scenario measuring what idle connections
// cost the reactor (fds and RSS, not threads), and durable inserts under
// group commit. Plain closed-loop point reads are perfbench's
// `point_lookup` workload. All traffic runs over real TCP loopback
// connections through the full frame protocol, so the numbers include
// framing, CRC, and the engine's statement lock.
//
// Percentiles land in the metrics dump (BENCH_server.json) as gauges:
//   server.bench.point_read_pipelined.c<N>.p50_us / .p99_us  (per stmt)
//   server.bench.idle_burst.{p50_us,p99_us,rss_mb,threads,connections}
//   server.bench.read_under_writes.{idle,writes,checkpoint}.{p50_us,p99_us}
//   server.bench.lifecycle.{queue_wait,execute,write_stall}_mean_us
//   server.bench.durable_inserts.{inserts_per_sec,p50_us,p99_us}
//   server.bench.durable_inserts.{wal_appends,wal_syncs}  (group size)
//
// The lifecycle gauges summarize where a statement's server-side time
// went across the whole run (means over the server.queue_wait_us /
// server.execute_us / server.write_stall_us histograms, which the dump
// also carries in full).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "server/client.h"
#include "server/server.h"

namespace erbium {
namespace bench {
namespace {

constexpr int kNumR = 2000;

/// One shared server for the whole benchmark process (leaked, like the
/// cached databases in bench_util.h).
server::Server* GetServer() {
  static server::Server* instance = [] {
    server::ServerOptions options;
    options.port = 0;
    options.max_connections = 80;
    options.idle_timeout_ms = 600'000;
    options.request_deadline_ms = 0;
    options.runner.figure4 = true;
    options.runner.figure4_num_r = kNumR;
    options.runner.figure4_num_s = kNumR * 3 / 10;
    // Point reads draw from kNumR distinct statement texts (literals are
    // part of the cache key); size the plan cache so the steady state is
    // all hits rather than LRU thrash.
    options.runner.plan_cache_capacity = 4096;
    auto server = server::Server::Start(std::move(options));
    if (!server.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   server.status().ToString().c_str());
      std::abort();
    }
    return std::move(server).value().release();
  }();
  return instance;
}

double Percentile(std::vector<double>* latencies, double p) {
  if (latencies->empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      p * static_cast<double>(latencies->size() - 1) + 0.5);
  std::nth_element(latencies->begin(), latencies->begin() + rank,
                   latencies->end());
  return (*latencies)[rank];
}

/// Keys for inserts stay unique across every benchmark repetition.
std::atomic<int64_t> g_next_insert_id{1'000'000};

/// Pipelined point reads: every client ships 16-statement batches, so
/// framing and scheduling amortize across one round-trip. Latency is
/// recorded per statement (batch wall time / batch size).
void BM_PointReadPipelined(benchmark::State& state) {
  constexpr int kBatch = 16;
  const int clients = static_cast<int>(state.range(0));
  server::Server* server = GetServer();

  std::vector<std::unique_ptr<server::Client>> connections;
  connections.reserve(clients);
  for (int i = 0; i < clients; ++i) {
    server::Client::Options options;
    options.port = server->port();
    options.name = "bench-pipeline-" + std::to_string(i);
    options.connect_retries = 10;
    auto client = server::Client::Connect(std::move(options));
    if (!client.ok()) {
      state.SkipWithError(client.status().ToString().c_str());
      return;
    }
    connections.push_back(std::move(client).value());
  }

  std::vector<double> all_latencies_us;
  for (auto _ : state) {
    std::vector<std::vector<double>> per_thread(clients);
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int i = 0; i < clients; ++i) {
      threads.emplace_back([&, i] {
        std::mt19937 rng(static_cast<uint32_t>(41 + i));
        for (int round = 0; round < 4 && !failed.load(); ++round) {
          std::vector<std::string> statements;
          statements.reserve(kBatch);
          for (int k = 0; k < kBatch; ++k) {
            statements.push_back("SELECT r_a1 FROM R WHERE r_id = " +
                                 std::to_string(1 + rng() % kNumR));
          }
          auto start = std::chrono::steady_clock::now();
          auto batch = connections[i]->ExecuteBatch(statements);
          auto end = std::chrono::steady_clock::now();
          if (!batch.ok() || batch->size() != statements.size()) {
            failed.store(true);
            break;
          }
          double per_stmt_us =
              std::chrono::duration<double, std::micro>(end - start).count() /
              kBatch;
          for (int k = 0; k < kBatch; ++k) {
            per_thread[i].push_back(per_stmt_us);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (failed.load()) {
      state.SkipWithError("a pipelined batch failed");
      return;
    }
    for (const auto& latencies : per_thread) {
      all_latencies_us.insert(all_latencies_us.end(), latencies.begin(),
                              latencies.end());
    }
  }

  state.SetItemsProcessed(static_cast<int64_t>(all_latencies_us.size()));
  double p50 = Percentile(&all_latencies_us, 0.50);
  double p99 = Percentile(&all_latencies_us, 0.99);
  state.counters["p50_us"] = p50;
  state.counters["p99_us"] = p99;
  std::string prefix =
      "server.bench.point_read_pipelined.c" + std::to_string(clients);
  obs::MetricsRegistry::Global()
      .gauge(prefix + ".p50_us")
      .Set(static_cast<int64_t>(std::llround(p50)));
  obs::MetricsRegistry::Global()
      .gauge(prefix + ".p99_us")
      .Set(static_cast<int64_t>(std::llround(p99)));
}

/// Folds the statement-lifecycle histograms the server populated over
/// the whole run into per-phase mean gauges, so the committed dump
/// answers "where does a statement's server-side time go" at a glance.
/// Called from the last benchmark; the full histograms ride along in
/// the dump regardless.
void RecordLifecycleSplit() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::RegistrySnapshot snapshot = registry.Snapshot();
  for (const char* phase : {"queue_wait", "execute", "write_stall"}) {
    auto it = snapshot.histograms.find("server." + std::string(phase) + "_us");
    if (it == snapshot.histograms.end() || it->second.count == 0) continue;
    registry
        .gauge("server.bench.lifecycle." + std::string(phase) + "_mean_us")
        .Set(static_cast<int64_t>(
            std::llround(it->second.sum / it->second.count)));
  }
}

/// The MVCC snapshot-read headline: point-read latency from 8 reader
/// connections, measured three ways on one dedicated durable server —
///   idle        readers alone (the baseline)
///   writes      readers while one client streams single-row inserts
///   checkpoint  readers while the writer streams AND another client
///               issues CHECKPOINT back to back
/// Reads execute against pinned immutable versions, writers serialize
/// per entity set, and CHECKPOINT writes its snapshot under a shared
/// lock — so the `writes` and `checkpoint` p99 should sit within ~2× of
/// `idle`, not behind the old multi-millisecond exclusive-lock stalls.
void BM_ReadUnderWrites(benchmark::State& state) {
  constexpr int kReaders = 8;
  constexpr int kReadsPerConn = 60;
  constexpr int kRows = 2000;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "erbium_bench_ruw").string();
  std::filesystem::remove_all(dir);

  // A dedicated server attached to disk: CHECKPOINT needs a durable
  // database, and the insert stream must not pollute the shared server.
  server::ServerOptions options;
  options.port = 0;
  options.max_connections = kReaders + 8;
  options.idle_timeout_ms = 600'000;
  options.request_deadline_ms = 0;
  options.runner.attach_dir = dir;
  options.runner.plan_cache_capacity = 4096;
  auto started = server::Server::Start(std::move(options));
  if (!started.ok()) {
    state.SkipWithError(started.status().ToString().c_str());
    return;
  }
  std::unique_ptr<server::Server> server = std::move(started).value();

  auto connect = [&](const std::string& name)
      -> std::unique_ptr<server::Client> {
    server::Client::Options copts;
    copts.port = server->port();
    copts.name = name;
    copts.connect_retries = 10;
    auto client = server::Client::Connect(std::move(copts));
    if (!client.ok()) return nullptr;
    return std::move(client).value();
  };

  // Populate through the front door: the attach replaced the in-memory
  // database, so the working set is created and loaded via statements.
  std::unique_ptr<server::Client> setup = connect("ruw-setup");
  if (setup == nullptr ||
      !setup->Execute("CREATE ENTITY RU ( id INT KEY, a1 INT )").ok()) {
    state.SkipWithError("read_under_writes setup failed");
    return;
  }
  for (int id = 1; id <= kRows; ++id) {
    auto ack = setup->Execute("INSERT RU (id = " + std::to_string(id) +
                              ", a1 = " + std::to_string(id * 7) + ")");
    if (!ack.ok()) {
      state.SkipWithError("read_under_writes data load failed");
      return;
    }
  }

  std::vector<std::unique_ptr<server::Client>> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(connect("ruw-reader-" + std::to_string(i)));
    if (readers.back() == nullptr) {
      state.SkipWithError("read_under_writes reader connect failed");
      return;
    }
  }
  std::unique_ptr<server::Client> writer = connect("ruw-writer");
  std::unique_ptr<server::Client> checkpointer = connect("ruw-checkpoint");
  if (writer == nullptr || checkpointer == nullptr) {
    state.SkipWithError("read_under_writes connect failed");
    return;
  }

  struct Mode {
    const char* name;
    bool with_writer;
    bool with_checkpoint;
  };
  constexpr Mode kModes[] = {{"idle", false, false},
                             {"writes", true, false},
                             {"checkpoint", true, true}};

  for (auto _ : state) {
    for (const Mode& mode : kModes) {
      std::atomic<bool> stop{false};
      std::atomic<bool> failed{false};
      std::thread write_stream;
      if (mode.with_writer) {
        write_stream = std::thread([&] {
          while (!stop.load()) {
            auto ack = writer->Execute(
                "INSERT RU (id = " +
                std::to_string(g_next_insert_id.fetch_add(1)) +
                ", a1 = 1)");
            if (!ack.ok()) {
              failed.store(true);
              return;
            }
          }
        });
      }
      std::thread checkpoint_stream;
      if (mode.with_checkpoint) {
        checkpoint_stream = std::thread([&] {
          while (!stop.load()) {
            auto ack = checkpointer->Execute("CHECKPOINT");
            if (!ack.ok()) {
              failed.store(true);
              return;
            }
            // Checkpoints are periodic in real deployments; a tight
            // loop would just measure CPU contention with the encoder.
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        });
      }

      std::vector<std::vector<double>> per_thread(kReaders);
      std::vector<std::thread> threads;
      threads.reserve(kReaders);
      for (int i = 0; i < kReaders; ++i) {
        threads.emplace_back([&, i] {
          std::mt19937 rng(static_cast<uint32_t>(211 + i));
          per_thread[i].reserve(kReadsPerConn);
          for (int k = 0; k < kReadsPerConn && !failed.load(); ++k) {
            std::string statement = "SELECT a1 FROM RU WHERE id = " +
                                    std::to_string(1 + rng() % kRows);
            auto start = std::chrono::steady_clock::now();
            auto outcome = readers[i]->Execute(statement);
            auto end = std::chrono::steady_clock::now();
            if (!outcome.ok()) {
              failed.store(true);
              break;
            }
            per_thread[i].push_back(
                std::chrono::duration<double, std::micro>(end - start)
                    .count());
          }
        });
      }
      for (std::thread& t : threads) t.join();
      stop.store(true);
      if (write_stream.joinable()) write_stream.join();
      if (checkpoint_stream.joinable()) checkpoint_stream.join();
      if (failed.load()) {
        state.SkipWithError("a read_under_writes request failed");
        return;
      }

      std::vector<double> latencies_us;
      for (const auto& lats : per_thread) {
        latencies_us.insert(latencies_us.end(), lats.begin(), lats.end());
      }
      double p50 = Percentile(&latencies_us, 0.50);
      double p99 = Percentile(&latencies_us, 0.99);
      state.counters[std::string(mode.name) + "_p50_us"] = p50;
      state.counters[std::string(mode.name) + "_p99_us"] = p99;
      std::string prefix =
          "server.bench.read_under_writes." + std::string(mode.name);
      obs::MetricsRegistry::Global()
          .gauge(prefix + ".p50_us")
          .Set(static_cast<int64_t>(std::llround(p50)));
      obs::MetricsRegistry::Global()
          .gauge(prefix + ".p99_us")
          .Set(static_cast<int64_t>(std::llround(p99)));
    }
  }

  readers.clear();
  writer.reset();
  checkpointer.reset();
  setup.reset();
  server->Stop();
  std::filesystem::remove_all(dir);
}

/// Reads a numeric field (kB for VmRSS) from /proc/self/status.
int64_t ProcSelfStatus(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream values(line.substr(std::strlen(field) + 1));
      int64_t value = 0;
      values >> value;
      return value;
    }
  }
  return -1;
}

/// The reactor's headline scenario: 1000 connections sit idle (costing
/// the server fds, not threads), then 64 of them burst point reads.
/// Reported: burst p50/p99 plus process RSS and thread count while all
/// 1000 connections are open. Server runs in-process, so RSS/threads
/// cover server + clients — an upper bound on the server's own cost.
void BM_IdleBurst(benchmark::State& state) {
  constexpr int kIdle = 1000;
  constexpr int kBurst = 64;
  constexpr int kReadsPerConn = 20;

  // 1000 client fds + 1000 server-side fds + slack.
  struct rlimit lim;
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < 8192) {
    lim.rlim_cur = std::min<rlim_t>(8192, lim.rlim_max);
    ::setrlimit(RLIMIT_NOFILE, &lim);
  }

  // A dedicated server: the idle population must not share the main
  // benchmark server's connection budget.
  server::ServerOptions options;
  options.port = 0;
  options.max_connections = kIdle + kBurst + 8;
  options.accept_backlog = 128;
  options.idle_timeout_ms = 600'000;
  options.request_deadline_ms = 0;
  options.runner.figure4 = true;
  options.runner.figure4_num_r = kNumR;
  options.runner.figure4_num_s = kNumR * 3 / 10;
  options.runner.plan_cache_capacity = 4096;
  auto started = server::Server::Start(std::move(options));
  if (!started.ok()) {
    state.SkipWithError(started.status().ToString().c_str());
    return;
  }
  std::unique_ptr<server::Server> server = std::move(started).value();

  std::vector<std::unique_ptr<server::Client>> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    server::Client::Options copts;
    copts.port = server->port();
    copts.name = "idle-" + std::to_string(i);
    copts.connect_retries = 10;
    auto client = server::Client::Connect(std::move(copts));
    if (!client.ok()) {
      state.SkipWithError(("idle connect " + std::to_string(i) + ": " +
                           client.status().ToString())
                              .c_str());
      return;
    }
    idle.push_back(std::move(client).value());
  }

  int64_t rss_kb = ProcSelfStatus("VmRSS:");
  int64_t threads = ProcSelfStatus("Threads:");

  std::vector<double> latencies_us;
  for (auto _ : state) {
    std::vector<std::vector<double>> per_thread(kBurst);
    std::atomic<bool> failed{false};
    std::vector<std::thread> burst;
    burst.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) {
      burst.emplace_back([&, i] {
        // Burst from established idle connections — the scenario is
        // "mostly-idle fleet, sudden hot subset".
        server::Client* client = idle[static_cast<size_t>(i)].get();
        std::mt19937 rng(static_cast<uint32_t>(97 + i));
        for (int k = 0; k < kReadsPerConn && !failed.load(); ++k) {
          std::string statement = "SELECT r_a1 FROM R WHERE r_id = " +
                                  std::to_string(1 + rng() % kNumR);
          auto start = std::chrono::steady_clock::now();
          auto outcome = client->Execute(statement);
          auto end = std::chrono::steady_clock::now();
          if (!outcome.ok()) {
            failed.store(true);
            break;
          }
          per_thread[i].push_back(
              std::chrono::duration<double, std::micro>(end - start)
                  .count());
        }
      });
    }
    for (std::thread& t : burst) t.join();
    if (failed.load()) {
      state.SkipWithError("a burst request failed");
      return;
    }
    for (const auto& lats : per_thread) {
      latencies_us.insert(latencies_us.end(), lats.begin(), lats.end());
    }
  }

  state.SetItemsProcessed(static_cast<int64_t>(latencies_us.size()));
  double p50 = Percentile(&latencies_us, 0.50);
  double p99 = Percentile(&latencies_us, 0.99);
  state.counters["p50_us"] = p50;
  state.counters["p99_us"] = p99;
  state.counters["rss_mb"] = static_cast<double>(rss_kb) / 1024.0;
  state.counters["threads"] = static_cast<double>(threads);
  auto& registry = obs::MetricsRegistry::Global();
  registry.gauge("server.bench.idle_burst.p50_us")
      .Set(static_cast<int64_t>(std::llround(p50)));
  registry.gauge("server.bench.idle_burst.p99_us")
      .Set(static_cast<int64_t>(std::llround(p99)));
  registry.gauge("server.bench.idle_burst.rss_mb")
      .Set(rss_kb >= 0 ? rss_kb / 1024 : -1);
  registry.gauge("server.bench.idle_burst.threads").Set(threads);
  registry.gauge("server.bench.idle_burst.connections")
      .Set(static_cast<int64_t>(server->active_connections()));

  idle.clear();
  server->Stop();
  RecordLifecycleSplit();
}

/// Durable ingest: single-row inserts from 16 connections into a fresh
/// attached directory with SyncMode::kFsync, so every acknowledged
/// insert is on disk. All inserts hit R, one lock domain, so they share
/// fdatasyncs only through the WAL's group commit (a writer releases its
/// domain before waiting for the sync). Reports inserts/s, p50/p99, and
/// the mean group size: WAL appends per fdatasync over the run.
void BM_DurableInserts(benchmark::State& state) {
  constexpr int kClients = 16;
  constexpr int kInsertsPerClient = 1500;

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("erbium_bench_durable_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  server::ServerOptions options;
  options.port = 0;
  options.max_connections = kClients + 4;
  options.idle_timeout_ms = 600'000;
  options.request_deadline_ms = 0;
  options.checkpoint_on_shutdown = false;
  options.runner.figure4 = true;  // the schema only; rows come from inserts
  options.runner.figure4_num_r = 0;
  options.runner.figure4_num_s = 0;
  options.runner.attach_dir = dir;
  options.runner.sync = durability::WalWriter::SyncMode::kFsync;
  auto started = server::Server::Start(std::move(options));
  if (!started.ok()) {
    state.SkipWithError(started.status().ToString().c_str());
    return;
  }
  std::unique_ptr<server::Server> server = std::move(started).value();

  std::vector<std::unique_ptr<server::Client>> connections;
  connections.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    server::Client::Options copts;
    copts.port = server->port();
    copts.name = "durable-" + std::to_string(i);
    copts.connect_retries = 10;
    auto client = server::Client::Connect(std::move(copts));
    if (!client.ok()) {
      state.SkipWithError(client.status().ToString().c_str());
      return;
    }
    connections.push_back(std::move(client).value());
  }

  auto& registry = obs::MetricsRegistry::Global();
  const int64_t appends_before = registry.counter("wal.appends").Value();
  const int64_t syncs_before = registry.counter("wal.syncs").Value();
  std::vector<double> all_latencies_us;
  double total_seconds = 0.0;
  for (auto _ : state) {
    std::vector<std::vector<double>> per_thread(kClients);
    std::atomic<bool> failed{false};
    auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        per_thread[i].reserve(kInsertsPerClient);
        for (int k = 0; k < kInsertsPerClient && !failed.load(); ++k) {
          std::string statement =
              "INSERT R (r_id = " +
              std::to_string(g_next_insert_id.fetch_add(1)) +
              ", r_a1 = 1, r_a2 = 0.5, r_a3 = 'b', r_a4 = 1)";
          auto start = std::chrono::steady_clock::now();
          auto outcome = connections[i]->Execute(statement);
          auto end = std::chrono::steady_clock::now();
          if (!outcome.ok()) {
            failed.store(true);
            break;
          }
          per_thread[i].push_back(
              std::chrono::duration<double, std::micro>(end - start)
                  .count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    total_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (failed.load()) {
      state.SkipWithError("a durable insert failed");
      break;
    }
    for (const auto& lats : per_thread) {
      all_latencies_us.insert(all_latencies_us.end(), lats.begin(),
                              lats.end());
    }
  }
  const int64_t appends = registry.counter("wal.appends").Value() -
                          appends_before;
  const int64_t syncs = registry.counter("wal.syncs").Value() - syncs_before;
  connections.clear();
  server->Stop();
  server.reset();
  std::filesystem::remove_all(dir);
  if (all_latencies_us.empty()) return;

  state.SetItemsProcessed(static_cast<int64_t>(all_latencies_us.size()));
  double p50 = Percentile(&all_latencies_us, 0.50);
  double p99 = Percentile(&all_latencies_us, 0.99);
  double per_sec = total_seconds > 0.0
                       ? static_cast<double>(all_latencies_us.size()) /
                             total_seconds
                       : 0.0;
  double group_size =
      syncs > 0 ? static_cast<double>(appends) / static_cast<double>(syncs)
                : 0.0;
  state.counters["p50_us"] = p50;
  state.counters["p99_us"] = p99;
  state.counters["inserts_per_sec"] = per_sec;
  state.counters["group_size"] = group_size;
  const std::string prefix = "server.bench.durable_inserts";
  registry.gauge(prefix + ".p50_us")
      .Set(static_cast<int64_t>(std::llround(p50)));
  registry.gauge(prefix + ".p99_us")
      .Set(static_cast<int64_t>(std::llround(p99)));
  registry.gauge(prefix + ".inserts_per_sec")
      .Set(static_cast<int64_t>(std::llround(per_sec)));
  registry.gauge(prefix + ".wal_appends").Set(appends);
  registry.gauge(prefix + ".wal_syncs").Set(syncs);
}

/// E1's result (r_id plus the three multi-valued attributes, one row per
/// R instance: 20,000 rows at bench scale) as the server encodes it.
const api::StatementOutcome& E1Outcome() {
  static const api::StatementOutcome* outcome = [] {
    auto result = erql::QueryEngine::Execute(
        GetDatabase(Figure4M1()), "SELECT r_id, r_mv1, r_mv2, r_mv3 FROM R");
    if (!result.ok()) {
      std::fprintf(stderr, "E1 failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    auto* out = new api::StatementOutcome;
    out->shape = api::OutputShape::kTable;
    out->result = std::move(result).value();
    return out;
  }();
  return *outcome;
}

server::ServerTiming BenchTiming() {
  server::ServerTiming timing;
  timing.present = true;
  timing.queue_wait_us = 12;
  timing.execute_us = 34'567;
  return timing;
}

/// The server's encode of E1's response: rows straight into one kResultSeq
/// frame, CRC included.
void BM_EncodeResultFrame(benchmark::State& state) {
  const api::StatementOutcome& outcome = E1Outcome();
  const server::ServerTiming timing = BenchTiming();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string frame = server::EncodeResultSeqFrame(1, outcome, timing);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
  state.counters["rows"] = static_cast<double>(outcome.result.rows.size());
}

/// The client's decode of E1's response body, where it lies (the frame
/// CRC is BM_Crc32's); the decoded rows are freed inside the timing.
void BM_DecodeResultBody(benchmark::State& state) {
  const std::string frame =
      server::EncodeResultSeqFrame(1, E1Outcome(), BenchTiming());
  const std::string_view body = std::string_view(frame).substr(9);
  for (auto _ : state) {
    std::string_view rest;
    server::ServerTiming timing;
    auto seq = server::DecodeSeqPrefix(body, &rest);
    auto decoded = server::DecodeResultBody(rest, &timing);
    if (!seq.ok() || !decoded.ok()) {
      state.SkipWithError("decode failed");
      return;
    }
    benchmark::DoNotOptimize(decoded->result.rows.data());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * body.size()));
}

BENCHMARK(BM_EncodeResultFrame)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecodeResultBody)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PointReadPipelined)->Arg(1)->Arg(8)->UseRealTime()
    ->Iterations(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReadUnderWrites)->UseRealTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IdleBurst)->UseRealTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DurableInserts)->UseRealTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace erbium

ERBIUM_BENCH_MAIN("server")
