#ifndef ERBIUM_SERVER_SERVER_H_
#define ERBIUM_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "server/protocol.h"
#include "server/session.h"

namespace erbium {
namespace server {

/// Network server configuration. The runner options decide what database
/// the server fronts (empty, --figure4 preloaded, or attached to disk).
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the bound one back with port().
  int port = 0;
  /// Admission limit; connection #max+1 gets kError(kUnavailable) at its
  /// Hello and a close — typed backpressure, never a silent drop.
  int max_connections = 64;
  /// listen(2) backlog — the bounded accept queue.
  int accept_backlog = 16;
  /// A connection idle (no complete frame) this long is told
  /// kError(kDeadlineExceeded) and closed. <= 0 disables.
  int idle_timeout_ms = 60'000;
  /// Per-statement budget (see Session::Execute). <= 0 disables.
  int request_deadline_ms = 30'000;
  /// Statement-execution worker threads for everything the event loop
  /// does not run inline (see Server). 0 sizes to the hardware
  /// concurrency (at least 2). The server owns a dedicated pool — never
  /// ThreadPool::Shared(), whose contract forbids intra-pool waits and
  /// which parallel query execution submits to from these very workers.
  int worker_threads = 0;
  /// Per-connection pipelining bound: once this many statements are
  /// queued or executing for one connection, the reactor stops reading
  /// its socket until responses drain (TCP backpressure — statements are
  /// delayed, never dropped).
  int max_pipeline_depth = 128;
  /// Database configuration (mapping preset, figure4 preload, attach
  /// directory, WAL sync mode).
  api::StatementRunner::Options runner;
  /// CHECKPOINT once all sessions have drained during Stop(), when a
  /// database is attached.
  bool checkpoint_on_shutdown = true;
  /// Second listener, served by the same epoll loop, speaking just
  /// enough HTTP for `GET /metrics` (Prometheus text exposition) and
  /// `GET /healthz` — the server is scrapeable without a wire-protocol
  /// session. -1 disables; 0 binds an ephemeral port (read it back
  /// with metrics_port()).
  int metrics_port = -1;
};

/// Event-driven TCP server speaking the frame protocol of
/// server/protocol.h. One reactor thread owns every socket: an epoll
/// loop accepts connections, reads frames through the incremental
/// FrameDecoder, and answers handshakes and Pings inline. An idle
/// connection therefore costs one fd and ~one Connection struct — not a
/// thread — so thousands of idle sessions are cheap.
///
/// Statements run in one of two places. A plain SELECT whose plan is
/// already cached and short on the tables' current sizes (IsShortPlan,
/// checked at checkout) runs to completion on the loop thread itself,
/// provided the statement lock is free to take shared at once
/// (Session::TryExecuteInline); its response is encoded and flushed in
/// the same loop turn. Everything else — plan cache misses, parallel or
/// long plans, INSERT, DDL, REMAP, CHECKPOINT, EXPLAIN, TRACE, SHOW —
/// goes to a small dedicated worker pool, whose responses come back
/// through a completion queue (eventfd wakeup). The loop writes every
/// response, buffered when the peer's window is full.
/// /metrics counts the two paths as server.statements.inline and
/// server.statements.pooled; server.loop.lag_us covers pooled
/// completions only.
///
/// Ordering: each connection's statements execute strictly in arrival
/// order (one in flight per connection; the rest wait in its pending
/// queue, and a statement never runs inline while an earlier one is on
/// the pool), and responses are written in that same order. Clients may
/// pipeline kStatementSeq frames without waiting; different connections
/// execute concurrently across the worker pool, subject to the
/// engine's shared/exclusive statement lock.
///
/// Stop() (also the destructor) is graceful: the listener closes first,
/// every connection stops reading, in-flight and queued statements
/// finish and their responses flush (bounded by a drain deadline for
/// peers that stopped reading), then the loop and workers join and,
/// when a database is attached, a final CHECKPOINT collapses the WAL.
class Server {
 public:
  static Result<std::unique_ptr<Server>> Start(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolves ephemeral binds).
  int port() const { return port_; }

  /// The bound metrics/health HTTP port, -1 when disabled.
  int metrics_port() const { return metrics_port_; }

  /// Graceful shutdown; idempotent. Returns the final-checkpoint status
  /// (OK when nothing is attached or checkpointing is disabled).
  Status Stop();

  SessionManager* session_manager() { return manager_.get(); }
  size_t active_connections() const { return manager_->active_sessions(); }

 private:
  struct Connection;
  /// A finished statement: the already-encoded response frame plus the
  /// lifecycle stamps the flush path needs to finish the statement's
  /// timing story once the last byte leaves the socket. A worker's
  /// completion is routed back to its connection by id (the connection
  /// may be gone); an inline one is queued on the spot.
  struct Completion {
    uint64_t conn_id = 0;
    std::string frame;
    uint64_t telemetry_seq = 0;  // QueryTelemetry seq, 0 if unrecorded
    uint64_t decode_ns = 0;      // statement frame decoded (t0)
    uint64_t done_ns = 0;        // finished executing (t2); for a pooled
                                 // statement also the completion-queue
                                 // push time the loop-lag histogram
                                 // measures against
  };
  struct PendingStatement {
    bool tagged = false;  // kStatementSeq (reply carries seq) vs kStatement
    uint64_t seq = 0;
    std::string text;
    uint64_t decode_ns = 0;  // MonotonicNowNs() at frame decode (t0)
  };

  explicit Server(ServerOptions options) : options_(std::move(options)) {}

  void EventLoop();
  void HandleAccept(int listen_fd, bool http);
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void HandleHttpReadable(const std::shared_ptr<Connection>& conn);
  void HandleHttpRequest(const std::shared_ptr<Connection>& conn);
  void DrainDecoder(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   FrameType type, std::string_view body);
  /// Starts conn's pending statements in order: inline while they
  /// qualify, then at most one on the pool.
  void ScheduleNext(const std::shared_ptr<Connection>& conn);
  /// Executes one statement (inline_only: only if it can run inline,
  /// else nullopt) and returns its encoded response and lifecycle
  /// stamps. The materialized outcome is left in *outcome, so the caller
  /// frees it once the response is on its way. Called by the loop, and by
  /// a worker for pooled statements.
  std::optional<Completion> RunStatement(
      const Connection& conn, const PendingStatement& item, bool inline_only,
      std::optional<Result<api::StatementOutcome>>* outcome);
  void ExecuteOnWorker(std::shared_ptr<Connection> conn,
                       PendingStatement item);
  void DrainCompletions();
  void QueueFrame(const std::shared_ptr<Connection>& conn, FrameType type,
                  const std::string& body);
  /// Appends pre-encoded bytes to conn's write queue, maintaining the
  /// backlog accounting (gauge + per-connection peak).
  void QueueBytes(const std::shared_ptr<Connection>& conn, std::string bytes,
                  uint64_t telemetry_seq = 0, uint64_t decode_ns = 0,
                  uint64_t done_ns = 0);
  /// Drops conn's write queue (broken socket / forced close), keeping
  /// the backlog gauge honest.
  void DiscardOutput(const std::shared_ptr<Connection>& conn);
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void BeginDrain(const std::shared_ptr<Connection>& conn);
  void UpdateEpoll(const std::shared_ptr<Connection>& conn);
  void MaybeClose(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void HandleTimeouts();
  int ComputeTimeoutMs() const;
  void WakeLoop();
  /// Pushes conn's transport counters into the SessionRegistry (the
  /// SHOW SESSIONS source); per-event granularity, never per byte.
  void SyncSessionStats(const std::shared_ptr<Connection>& conn);
  void RegisterMetrics();

  ServerOptions options_;
  int port_ = 0;
  int listen_fd_ = -1;
  int metrics_listen_fd_ = -1;
  int metrics_port_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: workers (and Stop) wake the loop
  uint64_t start_ns_ = 0;  // MonotonicNowNs() at Start, for the uptime gauge

  std::unique_ptr<SessionManager> manager_;
  /// Dedicated statement-execution pool (see ServerOptions::worker_threads).
  std::unique_ptr<ThreadPool> workers_;
  std::thread loop_thread_;
  std::atomic<bool> stopping_{false};
  bool shutdown_started_ = false;  // loop-thread only
  int64_t drain_deadline_ms_ = 0;  // loop-thread only

  /// Loop-thread-owned connection table; workers never touch it — they
  /// reference connections by id through the completion queue.
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 3;  // 0 = listener, 1 = wake eventfd,
                               // 2 = metrics listener

  std::mutex completions_mu_;
  std::deque<Completion> completions_;

  // Cached handles for the reactor/lifecycle metrics (registration takes
  // the registry lock; the hot path must not). All registered once in
  // RegisterMetrics() before the loop thread starts.
  obs::Histogram hist_queue_wait_us_;
  obs::Histogram hist_execute_us_;
  obs::Histogram hist_write_stall_us_;
  obs::Histogram hist_total_us_;
  obs::Histogram hist_loop_lag_us_;
  obs::Histogram hist_loop_iter_us_;
  obs::Histogram hist_pipeline_depth_;
  obs::Counter ctr_statements_inline_;
  obs::Counter ctr_statements_pooled_;
  obs::Counter ctr_protocol_errors_;
  obs::Counter ctr_connections_accepted_;
  obs::Counter ctr_bytes_in_;
  obs::Counter ctr_bytes_out_;
  obs::Counter ctr_scrapes_;
  obs::Counter ctr_scrape_requests_;
  obs::Histogram hist_scrape_duration_us_;
  obs::Gauge gauge_worker_queue_;
  obs::Gauge gauge_write_backlog_;
  obs::Gauge gauge_uptime_;
  /// Loop-thread shadow of gauge_write_backlog_ (buffered response bytes
  /// across all connections).
  int64_t write_backlog_bytes_ = 0;
};

}  // namespace server
}  // namespace erbium

#endif  // ERBIUM_SERVER_SERVER_H_
