// Network server integration tests: remote statement execution, session
// observability (SHOW SESSIONS / SHOW QUERIES attribution), admission
// backpressure, idle and request deadlines, graceful shutdown with a
// final checkpoint, and a 32-client mixed-workload hammer across the
// paper's mappings M1-M6 checked against a serial oracle. Runs under
// TSan in CI (the `server` label).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/statement_runner.h"
#include "durability/fault.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"

namespace erbium {
namespace server {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/erbium_server_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ServerOptions Figure4ServerOptions() {
  ServerOptions options;
  options.port = 0;
  options.runner.figure4 = true;
  options.runner.figure4_num_r = 200;
  options.runner.figure4_num_s = 80;
  return options;
}

Client::Options ClientFor(const Server& server, const std::string& name) {
  Client::Options options;
  options.port = server.port();
  options.name = name;
  return options;
}

/// Index of `column` in the result, or -1.
int ColumnIndex(const erql::QueryResult& result, const std::string& column) {
  auto it = std::find(result.columns.begin(), result.columns.end(), column);
  return it == result.columns.end()
             ? -1
             : static_cast<int>(it - result.columns.begin());
}

TEST(ServerTest, StartsOnEphemeralPortAndStops) {
  auto server = Server::Start(ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_GT((*server)->port(), 0);
  EXPECT_TRUE((*server)->Stop().ok());
  // Idempotent.
  EXPECT_TRUE((*server)->Stop().ok());
}

TEST(ServerTest, RemoteStatementsExecute) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(ClientFor(**server, "exec"));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_GT((*client)->session_id(), 0u);

  auto rows = (*client)->Execute("SELECT r_id, r_a1 FROM R WHERE r_id < 4");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->shape, api::OutputShape::kTable);
  EXPECT_EQ(rows->result.rows.size(), 3u);

  auto insert = (*client)->Execute(
      "INSERT R (r_id = 90001, r_a1 = 41, r_a2 = 0.5, r_a3 = 'wire', "
      "r_a4 = 2)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(insert->shape, api::OutputShape::kMessage);

  auto read_back =
      (*client)->Execute("SELECT r_a1 FROM R WHERE r_id = 90001");
  ASSERT_TRUE(read_back.ok());
  ASSERT_EQ(read_back->result.rows.size(), 1u);
  EXPECT_EQ(read_back->result.rows[0][0].as_int64(), 41);

  auto explain = (*client)->Execute("EXPLAIN SELECT r_id FROM R");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->shape, api::OutputShape::kLines);
  EXPECT_FALSE(explain->result.rows.empty());

  // A remap travels the same path; queries keep answering afterwards.
  auto remap = (*client)->Execute("REMAP m3");
  ASSERT_TRUE(remap.ok()) << remap.status().ToString();
  auto after = (*client)->Execute("SELECT r_a1 FROM R WHERE r_id = 90001");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->result.rows.size(), 1u);
  EXPECT_EQ(after->result.rows[0][0].as_int64(), 41);
}

TEST(ServerTest, RemoteErrorsKeepTheirStatusCode) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect(ClientFor(**server, "errs"));
  ASSERT_TRUE(client.ok());

  auto parse = (*client)->Execute("SELECT FROM WHERE");
  ASSERT_FALSE(parse.ok());
  EXPECT_EQ(parse.status().code(), StatusCode::kParseError);

  auto unknown = (*client)->Execute("FROBNICATE EVERYTHING");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  auto missing = (*client)->Execute("SELECT nope FROM R");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kAnalysisError);

  // The connection survives statement errors.
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST(ServerTest, PipelinedBatchExecutesInOrder) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(ClientFor(**server, "pipeline"));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Write-then-read within one batch: in-order execution makes the
  // read observe the write that preceded it in the pipeline.
  auto batch = (*client)->ExecuteBatch({
      "INSERT R (r_id = 80001, r_a1 = 5, r_a2 = 0.5, r_a3 = 'p', r_a4 = 1)",
      "SELECT r_a1 FROM R WHERE r_id = 80001",
      "SELECT FROM WHERE",  // mid-batch failure must not kill the batch
      "SELECT r_id FROM R WHERE r_id = 80001",
  });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 4u);
  EXPECT_TRUE((*batch)[0].status.ok()) << (*batch)[0].status.ToString();
  ASSERT_TRUE((*batch)[1].status.ok());
  ASSERT_EQ((*batch)[1].outcome.result.rows.size(), 1u);
  EXPECT_EQ((*batch)[1].outcome.result.rows[0][0].as_int64(), 5);
  EXPECT_EQ((*batch)[2].status.code(), StatusCode::kParseError);
  ASSERT_TRUE((*batch)[3].status.ok());
  EXPECT_EQ((*batch)[3].outcome.result.rows.size(), 1u);

  // The connection survives per-statement failures and stays usable for
  // both pipelined and classic one-at-a-time requests.
  EXPECT_TRUE((*client)->Ping().ok());
  EXPECT_TRUE((*client)->Execute("SELECT r_id FROM R WHERE r_id < 4").ok());
}

TEST(ServerTest, LargePipelinedBatchKeepsSequence) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect(ClientFor(**server, "pipeline-large"));
  ASSERT_TRUE(client.ok());

  // Well past max_pipeline_depth would stall without backpressure
  // handling; 100+ statements also cross several socket buffers.
  std::vector<std::string> statements;
  for (int i = 0; i < 120; ++i) {
    statements.push_back("SELECT r_id FROM R WHERE r_id = " +
                         std::to_string(i % 50));
  }
  auto batch = (*client)->ExecuteBatch(statements);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), statements.size());
  for (size_t i = 0; i < batch->size(); ++i) {
    ASSERT_TRUE((*batch)[i].status.ok()) << "statement " << i;
    // r_id 0 does not exist (ids start at 1); everything else does.
    EXPECT_EQ((*batch)[i].outcome.result.rows.size(),
              (i % 50) == 0 ? 0u : 1u)
        << "statement " << i;
  }
}

TEST(ServerTest, ConcurrentPipelinedClientsReadTheirOwnWrites) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect(
          ClientFor(**server, "pipe-" + std::to_string(t)));
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      int base = 81000 + t * 100;
      std::vector<std::string> statements;
      for (int i = 0; i < 8; ++i) {
        int id = base + i;
        statements.push_back(
            "INSERT R (r_id = " + std::to_string(id) + ", r_a1 = " +
            std::to_string(id) + ", r_a2 = 0.5, r_a3 = 'c', r_a4 = 1)");
        statements.push_back("SELECT r_a1 FROM R WHERE r_id = " +
                             std::to_string(id));
      }
      auto batch = (*client)->ExecuteBatch(statements);
      if (!batch.ok() || batch->size() != statements.size()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = 1; i < batch->size(); i += 2) {
        const auto& item = (*batch)[i];
        int id = base + static_cast<int>(i / 2);
        if (!item.status.ok() || item.outcome.result.rows.size() != 1 ||
            item.outcome.result.rows[0][0].as_int64() != id) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerTest, ShowSessionsListsRemoteClients) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok());
  auto alice = Client::Connect(ClientFor(**server, "alice"));
  auto bob = Client::Connect(ClientFor(**server, "bob"));
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  ASSERT_TRUE((*alice)->Execute("SELECT r_id FROM R WHERE r_id = 1").ok());

  auto sessions = (*bob)->Execute("SHOW SESSIONS");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  int name_col = ColumnIndex(sessions->result, "session");
  int peer_col = ColumnIndex(sessions->result, "peer");
  int stmts_col = ColumnIndex(sessions->result, "statements");
  ASSERT_GE(name_col, 0);
  ASSERT_GE(peer_col, 0);
  ASSERT_GE(stmts_col, 0);

  bool saw_alice = false, saw_bob = false;
  for (const Row& row : sessions->result.rows) {
    std::string_view name = row[name_col].as_string();
    if (name == "alice") {
      saw_alice = true;
      EXPECT_EQ(row[stmts_col].as_int64(), 1);
      EXPECT_NE(row[peer_col].as_string().find("127.0.0.1"),
                std::string::npos);
    }
    if (name == "bob") saw_bob = true;
  }
  EXPECT_TRUE(saw_alice);
  EXPECT_TRUE(saw_bob);

  // A departed session disappears.
  (*alice)->Close();
  // The server processes the goodbye asynchronously; poll briefly.
  bool gone = false;
  for (int i = 0; i < 50 && !gone; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto again = (*bob)->Execute("SHOW SESSIONS");
    ASSERT_TRUE(again.ok());
    gone = true;
    for (const Row& row : again->result.rows) {
      if (row[name_col].as_string() == "alice") gone = false;
    }
  }
  EXPECT_TRUE(gone);
}

TEST(ServerTest, ShowQueriesAttributesStatementsToSessions) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok());
  auto alice = Client::Connect(ClientFor(**server, "alice"));
  auto bob = Client::Connect(ClientFor(**server, "bob"));
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  ASSERT_TRUE((*alice)->Execute("SELECT r_a1 FROM R WHERE r_id = 7").ok());

  auto queries = (*bob)->Execute("SHOW QUERIES LIMIT 10");
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  int session_col = ColumnIndex(queries->result, "session");
  int query_col = ColumnIndex(queries->result, "query");
  ASSERT_GE(session_col, 0);
  ASSERT_GE(query_col, 0);
  bool attributed = false;
  for (const Row& row : queries->result.rows) {
    if (row[session_col].as_string() == "alice" &&
        row[query_col].as_string().find("r_id = 7") != std::string::npos) {
      attributed = true;
    }
  }
  EXPECT_TRUE(attributed);
}

TEST(ServerTest, PingPong) {
  auto server = Server::Start(ServerOptions{});
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect(ClientFor(**server, "pinger"));
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE((*client)->Ping().ok());
  }
}

TEST(ServerTest, MaxConnectionsGetTypedBackpressure) {
  ServerOptions options;
  options.port = 0;
  options.max_connections = 2;
  auto server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok());

  auto first = Client::Connect(ClientFor(**server, "c1"));
  auto second = Client::Connect(ClientFor(**server, "c2"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  auto third = Client::Connect(ClientFor(**server, "c3"));
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable)
      << third.status().ToString();
  EXPECT_NE(third.status().message().find("limit"), std::string::npos);

  // Releasing a slot lets the next connection in (retry covers the
  // server's asynchronous goodbye processing).
  (*first)->Close();
  Client::Options retry = ClientFor(**server, "c4");
  retry.connect_retries = 25;
  retry.connect_retry_pause_ms = 100;
  auto fourth = [&] {
    for (int i = 0; i < 25; ++i) {
      auto attempt = Client::Connect(retry);
      if (attempt.ok()) return attempt;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return Client::Connect(retry);
  }();
  EXPECT_TRUE(fourth.ok()) << fourth.status().ToString();
}

TEST(ServerTest, IdleConnectionsAreClosed) {
  ServerOptions options;
  options.port = 0;
  options.idle_timeout_ms = 150;
  auto server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect(ClientFor(**server, "sleepy"));
  ASSERT_TRUE(client.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  auto late = (*client)->Execute("SHOW METRICS LIKE 'server.*'");
  ASSERT_FALSE(late.ok());
  // Either the typed idle-timeout error frame arrived, or the close beat
  // our request; both are clean outcomes, a hang or crash is not.
  EXPECT_TRUE(late.status().code() == StatusCode::kDeadlineExceeded ||
              late.status().code() == StatusCode::kUnavailable ||
              late.status().code() == StatusCode::kIOError)
      << late.status().ToString();
}

TEST(ServerTest, RequestDeadlineReturnsTypedError) {
  ServerOptions options = Figure4ServerOptions();
  options.runner.figure4_num_r = 1500;
  options.runner.figure4_num_s = 400;
  options.request_deadline_ms = 1;
  auto server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect(ClientFor(**server, "deadline"));
  ASSERT_TRUE(client.ok());

  // A three-way join over the preloaded data takes well over 1 ms.
  auto heavy = (*client)->Execute(
      "SELECT r.r_id, s.s_id, rs_a1 FROM R r JOIN S s ON RS");
  ASSERT_FALSE(heavy.ok());
  EXPECT_EQ(heavy.status().code(), StatusCode::kDeadlineExceeded)
      << heavy.status().ToString();
  EXPECT_NE(heavy.status().message().find("deadline"), std::string::npos);

  // The connection survives a deadline miss.
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST(ServerTest, GracefulShutdownDrainsAndCheckpoints) {
  std::string dir = FreshDir("shutdown");
  ServerOptions options = Figure4ServerOptions();
  options.runner.attach_dir = dir;
  auto server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = Client::Connect(ClientFor(**server, "writer"));
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 20; ++i) {
    auto insert = (*client)->Execute(
        "INSERT R (r_id = " + std::to_string(70000 + i) + ", r_a1 = " +
        std::to_string(i) + ", r_a2 = 1.0, r_a3 = 'd', r_a4 = 0)");
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  }

  // Fire one more statement from a thread while Stop() runs, to exercise
  // the drain path. Depending on timing it completes or sees the close;
  // either way nothing may crash or hang.
  std::thread racer([&] {
    (void)(*client)->Execute("SELECT r_id FROM R WHERE r_id >= 70000");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE((*server)->Stop().ok());
  racer.join();
  server->reset();

  // Reopen the directory: every acknowledged insert is there, and the
  // shutdown checkpoint collapsed the WAL (nothing to replay).
  api::StatementRunner::Options reopen;
  reopen.attach_dir = dir;
  auto runner = api::StatementRunner::Create(std::move(reopen));
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  const auto& info = (*runner)->durable()->recovery_info();
  EXPECT_TRUE(info.had_snapshot);
  EXPECT_EQ(info.records_replayed, 0u);
  auto rows = (*runner)->Execute("SELECT r_id FROM R WHERE r_id >= 70000");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->result.rows.size(), 20u);
}

// ---- Inline execution on the event loop -----------------------------------

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().CounterValue(name);
}
uint64_t InlineCount() { return CounterValue("server.statements.inline"); }
uint64_t PooledCount() { return CounterValue("server.statements.pooled"); }

/// The inline cutoff: a cached statement whose plan is not short stays on
/// the pool, and the loop keeps answering cached point reads inline while
/// it runs. Connection A's statement is E1 topped with ORDER BY ... LIMIT
/// 1 (its leaves read well over the 8192-row threshold at 1500
/// instances). It is parked on the `server.execute` gate at its pool
/// worker's execute point, and while it is parked connection B's cached
/// point reads must all be answered and counted as inline. Were A's
/// statement run inline, it would never reach the gate; were B's reads
/// declined by the inline path, the pool would answer them and the
/// inline count would not move.
TEST(ServerInlineTest, LongCachedStatementDoesNotStallPointReads) {
  durability::FaultInjector faults;
  ServerOptions options = Figure4ServerOptions();
  options.runner.figure4_num_r = 1500;
  options.runner.figure4_num_s = 400;
  options.runner.faults = &faults;
  options.worker_threads = 2;
  auto server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto a = Client::Connect(ClientFor(**server, "inline-long"));
  auto b = Client::Connect(ClientFor(**server, "inline-reads"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::string kLong =
      "SELECT r_id, r_mv1, r_mv2, r_mv3 FROM R ORDER BY r_id DESC LIMIT 1";
  auto read = [](int key) {
    return "SELECT r_a1 FROM R WHERE r_id = " + std::to_string(key);
  };

  // First runs miss the plan cache and go to the pool; after them the
  // read is cached and short (inline) and A's statement is cached but
  // long (pooled).
  auto warm = (*a)->Execute(kLong);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->result.rows.size(), 1u);
  ASSERT_TRUE((*b)->Execute(read(1)).ok());
  uint64_t inline_before = InlineCount();
  uint64_t pooled_before = PooledCount();
  ASSERT_TRUE((*b)->Execute(read(2)).ok());
  EXPECT_EQ(InlineCount(), inline_before + 1);
  ASSERT_TRUE((*a)->Execute(kLong).ok());
  EXPECT_EQ(PooledCount(), pooled_before + 1);
  const std::string answer = warm->result.ToCanonicalString();

  faults.ArmGate("server.execute");
  std::optional<Result<api::StatementOutcome>> long_outcome;
  std::thread long_runner([&] { long_outcome = (*a)->Execute(kLong); });
  const bool parked = faults.WaitUntilBlocked();
  constexpr int kReads = 10;
  int answered = 0;
  uint64_t inline_parked = InlineCount();
  for (int i = 0; parked && i < kReads; ++i) {
    auto outcome = (*b)->Execute(read(3 + i));
    if (outcome.ok() && outcome->result.rows.size() == 1) ++answered;
  }
  const uint64_t inline_reads = InlineCount() - inline_parked;
  faults.ReleaseGate();
  long_runner.join();

  ASSERT_TRUE(parked) << "A's statement never reached its pool worker";
  EXPECT_EQ(answered, kReads);
  EXPECT_EQ(inline_reads, static_cast<uint64_t>(kReads))
      << "reads answered inline while A's statement was parked";
  ASSERT_TRUE(long_outcome.has_value());
  ASSERT_TRUE(long_outcome->ok()) << long_outcome->status().ToString();
  EXPECT_EQ((*long_outcome)->result.ToCanonicalString(), answer);
  ASSERT_TRUE((*server)->Stop().ok());
}

/// A pipelined batch mixing statements that run inline with ones that go
/// to the pool still answers in seq order, and each statement sees the
/// effects of the ones before it.
TEST(ServerInlineTest, PipelinedMixOfInlineAndPooledKeepsOrder) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(ClientFor(**server, "inline-mix"));
  ASSERT_TRUE(client.ok());
  auto read = [](int key) {
    return "SELECT r_a1 FROM R WHERE r_id = " + std::to_string(key);
  };
  auto insert = [](int key, int a1) {
    return "INSERT R (r_id = " + std::to_string(key) +
           ", r_a1 = " + std::to_string(a1) +
           ", r_a2 = 0.5, r_a3 = 'mix', r_a4 = 1)";
  };
  ASSERT_TRUE((*client)->Execute(read(1)).ok());  // cache the point read

  uint64_t inline_before = InlineCount();
  uint64_t pooled_before = PooledCount();
  auto batch = (*client)->ExecuteBatch({
      read(3),                 // inline
      insert(85001, 17),       // pooled
      read(85001),             // inline, after the insert
      read(4),                 // inline
      "SELECT r_id, r_a4 FROM R WHERE r_a1 = 17 AND r_a4 = 1",  // miss
      insert(85002, 18),       // pooled
      "SHOW SESSIONS",         // pooled
      read(85002),             // inline
      read(85001),             // inline
  });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 9u);
  for (size_t i = 0; i < batch->size(); ++i) {
    ASSERT_TRUE((*batch)[i].status.ok())
        << i << ": " << (*batch)[i].status.ToString();
  }
  auto a1_of = [&](size_t i) {
    const auto& rows = (*batch)[i].outcome.result.rows;
    return rows.size() == 1 ? rows[0][0].as_int64() : int64_t{-1};
  };
  EXPECT_EQ((*batch)[0].outcome.result.rows.size(), 1u);
  EXPECT_EQ(a1_of(2), 17);
  EXPECT_EQ((*batch)[3].outcome.result.rows.size(), 1u);
  bool saw_insert = false;
  for (const Row& row : (*batch)[4].outcome.result.rows) {
    if (row[0].as_int64() == 85001) saw_insert = true;
  }
  EXPECT_TRUE(saw_insert);
  EXPECT_EQ((*batch)[6].outcome.shape, api::OutputShape::kTable);
  EXPECT_EQ(a1_of(7), 18);
  EXPECT_EQ(a1_of(8), 17);
  // Both paths carried part of the batch.
  EXPECT_EQ(InlineCount() - inline_before, 5u);
  EXPECT_EQ(PooledCount() - pooled_before, 4u);
}

/// The loop never blocks on the statement lock: while a REMAP holds it
/// exclusively (parked inside its WAL fdatasync), a Ping and a cached
/// read on other connections are still served by the loop — the Ping
/// answered at once, the read handed to the pool, which answers it once
/// the REMAP is done.
TEST(ServerInlineTest, LoopServesWhileRemapHoldsTheStatementLock) {
  durability::FaultInjector faults;
  ServerOptions options = Figure4ServerOptions();
  options.worker_threads = 2;
  options.runner.attach_dir = FreshDir("inline_remap");
  options.runner.sync = durability::WalWriter::SyncMode::kFsync;
  options.runner.faults = &faults;
  auto server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto remapper = Client::Connect(ClientFor(**server, "inline-remap"));
  auto reader = Client::Connect(ClientFor(**server, "inline-reader"));
  // A loop stuck on the lock would leave the Ping unanswered: fail in
  // seconds rather than after the default minute.
  Client::Options pinger_options = ClientFor(**server, "inline-pinger");
  pinger_options.recv_timeout_ms = 5'000;
  auto pinger = Client::Connect(pinger_options);
  ASSERT_TRUE(remapper.ok());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(pinger.ok());
  // An attached directory starts empty: give the read a row to find.
  ASSERT_TRUE((*reader)
                  ->Execute("INSERT R (r_id = 7, r_a1 = 70, r_a2 = 0.5, "
                            "r_a3 = 'lock', r_a4 = 1)")
                  .ok());
  const std::string kRead = "SELECT r_a1 FROM R WHERE r_id = 7";
  auto expected = (*reader)->Execute(kRead);  // miss: caches the plan
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->result.rows.size(), 1u);
  uint64_t inline_before = InlineCount();
  ASSERT_TRUE((*reader)->Execute(kRead).ok());
  ASSERT_EQ(InlineCount(), inline_before + 1);  // cached: runs inline

  faults.ArmGate("wal.sync");
  std::thread remap([&] {
    auto remapped = (*remapper)->Execute("REMAP m2");
    EXPECT_TRUE(remapped.ok()) << remapped.status().ToString();
  });
  ASSERT_TRUE(faults.WaitUntilBlocked());
  // The REMAP now holds the statement lock exclusively.
  inline_before = InlineCount();
  uint64_t pooled_before = PooledCount();
  std::atomic<bool> read_done{false};
  Result<api::StatementOutcome> during = Status::Internal("not run");
  std::thread read([&] {
    during = (*reader)->Execute(kRead);
    read_done.store(true);
  });
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE((*pinger)->Ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The read reached the server (the loop declined it and pooled it)
  // but cannot be answered until the REMAP lets go of the lock.
  for (int i = 0; i < 500 && PooledCount() == pooled_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(PooledCount(), pooled_before + 1);
  EXPECT_FALSE(read_done.load());
  EXPECT_TRUE((*pinger)->Ping().ok());

  faults.ReleaseGate();
  remap.join();
  read.join();
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(during->result.ToCanonicalString(),
            expected->result.ToCanonicalString());
  EXPECT_EQ(InlineCount(), inline_before);
  ASSERT_TRUE((*server)->Stop().ok());
}

// ---- The hammer -----------------------------------------------------------

/// 32 concurrent clients firing mixed INSERT / point-SELECT /
/// SHOW SESSIONS / CHECKPOINT traffic at one server, for each mapping
/// preset M1-M6. Every client checks read-your-writes on its own keys
/// (disjoint key ranges make the serial oracle per key exact), and at
/// the end a fresh client verifies the full set of acknowledged inserts
/// is visible — the engine-level statement lock must have serialized
/// writers correctly under every physical mapping.
TEST(ServerHammerTest, MixedWorkloadAcrossMappingsM1ToM6) {
  const std::vector<std::string> presets = {"m1", "m2", "m3",
                                            "m4", "m5", "m6"};
  constexpr int kClients = 32;
  constexpr int kInsertsPerClient = 3;
  for (const std::string& preset : presets) {
    SCOPED_TRACE("mapping " + preset);
    ServerOptions options;
    options.port = 0;
    options.max_connections = kClients + 4;
    options.runner.figure4 = true;
    options.runner.figure4_num_r = 60;
    options.runner.figure4_num_s = 30;
    options.runner.spec = api::StatementRunner::PresetByName(preset);
    options.runner.attach_dir = FreshDir("hammer_" + preset);
    auto server = Server::Start(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    std::atomic<int> failures{0};
    std::vector<std::set<int64_t>> acked(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        Client::Options copt = ClientFor(**server, "h" + std::to_string(i));
        copt.connect_retries = 20;
        auto client = Client::Connect(copt);
        if (!client.ok()) {
          ++failures;
          return;
        }
        for (int k = 0; k < kInsertsPerClient; ++k) {
          int64_t id = 100000 + i * 100 + k;
          auto insert = (*client)->Execute(
              "INSERT R (r_id = " + std::to_string(id) + ", r_a1 = " +
              std::to_string(i) + ", r_a2 = 0.5, r_a3 = 'h', r_a4 = 1)");
          if (!insert.ok()) {
            ++failures;
            continue;
          }
          acked[i].insert(id);
          // Read-your-writes: this key is ours alone, so the point read
          // must see exactly the acknowledged value.
          auto read = (*client)->Execute("SELECT r_a1 FROM R WHERE r_id = " +
                                         std::to_string(id));
          if (!read.ok() || read->result.rows.size() != 1 ||
              read->result.rows[0][0].as_int64() != i) {
            ++failures;
          }
        }
        if (i % 5 == 0) {
          if (!(*client)->Execute("SHOW SESSIONS").ok()) ++failures;
        }
        if (i % 8 == 0) {
          if (!(*client)->Execute("CHECKPOINT").ok()) ++failures;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);

    // Serial oracle: a fresh session must see the union of everything
    // acknowledged, exactly once each.
    std::set<int64_t> expected;
    for (const auto& per_client : acked) {
      expected.insert(per_client.begin(), per_client.end());
    }
    auto oracle = Client::Connect(ClientFor(**server, "oracle"));
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    auto rows =
        (*oracle)->Execute("SELECT r_id FROM R WHERE r_id >= 100000");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    std::set<int64_t> got;
    for (const Row& row : rows->result.rows) {
      got.insert(row[0].as_int64());
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(rows->result.rows.size(), expected.size()) << "duplicate rows";

    ASSERT_TRUE((*server)->Stop().ok());
  }
}

}  // namespace
}  // namespace server
}  // namespace erbium
