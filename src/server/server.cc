#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace erbium {
namespace server {

namespace {

constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kMetricsListenerTag = 2;
/// How long Stop() keeps flushing responses toward peers that stopped
/// reading before dropping them on the floor.
constexpr int64_t kDrainDeadlineMs = 5'000;
/// An HTTP request (line + headers) larger than this is rejected with
/// 431 — /metrics and /healthz requests are a few hundred bytes.
constexpr size_t kMaxHttpRequestBytes = 16 * 1024;

/// Microsecond latency bucket edges for the statement-lifecycle and
/// reactor histograms: 10us point-read territory through multi-second
/// stalls.
const std::vector<double>& LatencyBoundsUs() {
  static const std::vector<double>* bounds = new std::vector<double>{
      10,     25,     50,      100,     250,     500,   1000, 2500,
      5000,   10000,  25000,   50000,   100000,  250000, 1e6,  5e6};
  return *bounds;
}

/// The loop is expected to turn around in microseconds; its buckets
/// start an order of magnitude lower than the statement buckets.
const std::vector<double>& LoopBoundsUs() {
  static const std::vector<double>* bounds = new std::vector<double>{
      5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 100000};
  return *bounds;
}

const std::vector<double>& PipelineDepthBounds() {
  static const std::vector<double>* bounds =
      new std::vector<double>{1, 2, 4, 8, 16, 32, 64, 128, 256};
  return *bounds;
}

std::string PeerName(const struct sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Creates a bound, listening, non-blocking TCP socket and writes the
/// resolved port (meaningful for ephemeral binds) to *bound_port.
Result<int> BindListener(const std::string& host, int port, int backlog,
                         int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparseable listen address '" + host +
                                   "'");
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::IOError("bind to " + host + ":" +
                                std::to_string(port) +
                                " failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, backlog) < 0) {
    Status st =
        Status::IOError(std::string("listen failed: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &addr_len);
  *bound_port = ntohs(addr.sin_port);
  SetNonBlocking(fd);
  return fd;
}

}  // namespace

/// Per-connection reactor state. Everything here is owned by the loop
/// thread, with two exceptions a worker may touch while `executing` is
/// true: `id` and the `session` pointer (set once at handshake, cleared
/// only after the last reference drops). The loop never closes a
/// connection while a statement is executing, so a worker's Session
/// stays valid for the whole statement.
struct Server::Connection {
  int fd = -1;
  uint64_t id = 0;
  std::string peer;
  std::unique_ptr<Session> session;  // null until the Hello handshake
  FrameDecoder decoder;

  /// One queued response: the encoded bytes plus — for statement
  /// responses — the lifecycle stamps that let the flush path close the
  /// timing story when the last byte leaves the socket. Control frames
  /// (HelloOk, Pong, errors, HTTP responses) leave the stamps zero and
  /// cost the write path no clock read.
  struct OutFrame {
    std::string bytes;
    uint64_t telemetry_seq = 0;
    uint64_t decode_ns = 0;  // statement frame decoded (t0)
    uint64_t done_ns = 0;    // finished executing (t2)
  };

  /// Encoded response frames awaiting the socket; front() is partially
  /// written up to out_offset.
  std::deque<OutFrame> out;
  size_t out_offset = 0;
  /// Bytes in `out` not yet written; QueueBytes/FlushWrites/DiscardOutput
  /// keep it (and the server-wide backlog gauge) in step.
  size_t out_bytes = 0;

  /// True for connections accepted on the metrics listener: they speak
  /// HTTP, never the frame protocol, and close after one response.
  bool http = false;
  std::string http_request;  // bytes buffered until the blank line

  // Transport counters surfaced by SHOW SESSIONS.
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t peak_out_bytes = 0;

  /// Statements decoded but not yet handed to a worker; at most one is
  /// executing at a time, preserving per-session statement order.
  std::deque<PendingStatement> pending;
  bool executing = false;

  bool draining = false;     // stop reading; close once work + out drain
  bool broken = false;       // socket unusable; close once not executing
  bool read_paused = false;  // pipeline depth reached; EPOLLIN de-armed
  uint32_t armed = 0;        // last epoll event mask requested
  int64_t last_activity_ms = 0;

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  std::unique_ptr<Server> server(new Server(std::move(options)));

  SessionManager::Options manager_options;
  manager_options.runner = server->options_.runner;
  manager_options.max_sessions = server->options_.max_connections;
  manager_options.request_deadline_ms = server->options_.request_deadline_ms;
  ERBIUM_ASSIGN_OR_RETURN(server->manager_,
                          SessionManager::Create(std::move(manager_options)));

  ERBIUM_ASSIGN_OR_RETURN(
      int fd, BindListener(server->options_.host, server->options_.port,
                           server->options_.accept_backlog, &server->port_));
  server->listen_fd_ = fd;
  if (server->options_.metrics_port >= 0) {
    ERBIUM_ASSIGN_OR_RETURN(
        server->metrics_listen_fd_,
        BindListener(server->options_.host, server->options_.metrics_port,
                     server->options_.accept_backlog,
                     &server->metrics_port_));
  }

  server->epoll_fd_ = ::epoll_create1(0);
  server->wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (server->epoll_fd_ < 0 || server->wake_fd_ < 0) {
    return Status::IOError(std::string("epoll/eventfd setup failed: ") +
                           std::strerror(errno));
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  ::epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->wake_fd_, &ev);
  if (server->metrics_listen_fd_ >= 0) {
    ev.data.u64 = kMetricsListenerTag;
    ::epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->metrics_listen_fd_,
                &ev);
  }

  server->RegisterMetrics();

  int workers = server->options_.worker_threads;
  if (workers <= 0) {
    workers = std::max(2u, std::thread::hardware_concurrency());
  }
  server->workers_ = std::make_unique<ThreadPool>(workers);
  server->loop_thread_ = std::thread([raw = server.get()] { raw->EventLoop(); });
  return server;
}

Server::~Server() { Stop(); }

void Server::RegisterMetrics() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  hist_queue_wait_us_ =
      registry.histogram("server.queue_wait_us", LatencyBoundsUs());
  hist_execute_us_ = registry.histogram("server.execute_us", LatencyBoundsUs());
  hist_write_stall_us_ =
      registry.histogram("server.write_stall_us", LatencyBoundsUs());
  hist_total_us_ =
      registry.histogram("server.statement_total_us", LatencyBoundsUs());
  hist_loop_lag_us_ = registry.histogram("server.loop.lag_us", LoopBoundsUs());
  hist_loop_iter_us_ =
      registry.histogram("server.loop.iteration_us", LoopBoundsUs());
  hist_pipeline_depth_ =
      registry.histogram("server.pipeline_depth", PipelineDepthBounds());
  ctr_statements_inline_ = registry.counter("server.statements.inline");
  ctr_statements_pooled_ = registry.counter("server.statements.pooled");
  ctr_protocol_errors_ = registry.counter("server.protocol_errors");
  ctr_connections_accepted_ = registry.counter("server.connections.accepted");
  ctr_bytes_in_ = registry.counter("server.bytes_in");
  ctr_bytes_out_ = registry.counter("server.bytes_out");
  ctr_scrapes_ = registry.counter("server.metrics.scrapes");
  ctr_scrape_requests_ = registry.counter("server.scrape.requests");
  hist_scrape_duration_us_ =
      registry.histogram("server.scrape.duration_us", LatencyBoundsUs());
  gauge_worker_queue_ = registry.gauge("server.worker.queue_depth");
  gauge_write_backlog_ = registry.gauge("server.write_backlog_bytes");
  gauge_uptime_ = registry.gauge("server.uptime_seconds");
  // A constant-1 gauge, the conventional Prometheus way to expose build
  // identity (exports as erbium_build_info).
  registry.gauge("build.info").Set(1);
  start_ns_ = obs::MonotonicNowNs();
  gauge_uptime_.Set(0);
}

void Server::WakeLoop() {
  uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;  // EAGAIN just means a wakeup is already pending.
}

// ---- The reactor ----------------------------------------------------------

void Server::EventLoop() {
  std::vector<struct epoll_event> events(128);
  for (;;) {
    if (stopping_.load() && !shutdown_started_) {
      shutdown_started_ = true;
      drain_deadline_ms_ = NowMs() + kDrainDeadlineMs;
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      if (metrics_listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, metrics_listen_fd_, nullptr);
        ::close(metrics_listen_fd_);
        metrics_listen_fd_ = -1;
      }
      // Stop reading everywhere; in-flight and queued statements finish
      // and their responses flush before each connection closes.
      std::vector<std::shared_ptr<Connection>> all;
      all.reserve(conns_.size());
      for (const auto& entry : conns_) all.push_back(entry.second);
      for (const auto& conn : all) BeginDrain(conn);
    }
    if (shutdown_started_ && conns_.empty()) break;

    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), ComputeTimeoutMs());
    if (n < 0 && errno != EINTR) break;
    // Iteration duration covers the work between epoll_wait returns —
    // the sleep itself is not loop overhead. One clock pair per
    // iteration, never per statement.
    uint64_t work_start_ns = obs::MonotonicNowNs();
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[i].data.u64;
      uint32_t ev = events[i].events;
      if (tag == kListenerTag) {
        HandleAccept(listen_fd_, /*http=*/false);
        continue;
      }
      if (tag == kMetricsListenerTag) {
        HandleAccept(metrics_listen_fd_, /*http=*/true);
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      std::shared_ptr<Connection> conn = it->second;
      if (ev & (EPOLLERR | EPOLLHUP)) {
        conn->broken = true;
        conn->pending.clear();
        DiscardOutput(conn);
      }
      if ((ev & EPOLLOUT) && !conn->broken) FlushWrites(conn);
      if ((ev & EPOLLIN) && !conn->broken && !conn->draining) {
        HandleReadable(conn);
      }
      UpdateEpoll(conn);
      MaybeClose(conn);
    }
    DrainCompletions();
    HandleTimeouts();
    hist_loop_iter_us_.Observe(
        static_cast<double>(obs::MonotonicNowNs() - work_start_ns) / 1e3);
  }
}

int Server::ComputeTimeoutMs() const {
  if (shutdown_started_) return 50;
  if (options_.idle_timeout_ms <= 0) return -1;
  int64_t min_deadline = INT64_MAX;
  for (const auto& entry : conns_) {
    const Connection& conn = *entry.second;
    if (conn.draining || conn.broken || conn.executing ||
        !conn.pending.empty()) {
      continue;  // busy connections are not idle
    }
    min_deadline = std::min(
        min_deadline, conn.last_activity_ms + options_.idle_timeout_ms);
  }
  if (min_deadline == INT64_MAX) return -1;
  int64_t wait = min_deadline - NowMs();
  return static_cast<int>(std::clamp<int64_t>(wait, 0, 60'000));
}

void Server::HandleTimeouts() {
  int64_t now = NowMs();
  std::vector<std::shared_ptr<Connection>> expired;
  if (options_.idle_timeout_ms > 0 && !shutdown_started_) {
    for (const auto& entry : conns_) {
      const auto& conn = entry.second;
      if (conn->draining || conn->broken || conn->executing ||
          !conn->pending.empty()) {
        continue;
      }
      if (now - conn->last_activity_ms >= options_.idle_timeout_ms) {
        expired.push_back(conn);
      }
    }
    for (const auto& conn : expired) {
      if (conn->session != nullptr) {
        QueueFrame(conn, FrameType::kError,
                   EncodeErrorBody(Status::DeadlineExceeded(
                       "connection idle past " +
                       std::to_string(options_.idle_timeout_ms) +
                       " ms; closing")));
      }
      // Pre-handshake idlers (port scanners) get a silent close.
      BeginDrain(conn);
    }
  }
  if (shutdown_started_ && now >= drain_deadline_ms_) {
    // Peers that stopped reading forfeit their buffered responses; we
    // still wait out executing statements (their deadline bounds them).
    std::vector<std::shared_ptr<Connection>> stuck;
    for (const auto& entry : conns_) {
      if (!entry.second->executing) stuck.push_back(entry.second);
    }
    for (const auto& conn : stuck) {
      conn->pending.clear();
      DiscardOutput(conn);
      CloseConnection(conn);
    }
  }
}

// ---- Accept + read path ---------------------------------------------------

void Server::HandleAccept(int listen_fd, bool http) {
  if (listen_fd < 0) return;
  for (;;) {
    struct sockaddr_in peer_addr;
    socklen_t peer_len = sizeof(peer_addr);
    int fd = ::accept4(listen_fd,
                       reinterpret_cast<struct sockaddr*>(&peer_addr),
                       &peer_len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: queue drained. Anything else (EMFILE under load, aborted
      // connections) must not kill the listener either.
      break;
    }
    if (!http) ctr_connections_accepted_.Increment();
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->peer = PeerName(peer_addr);
    conn->http = http;
    conn->last_activity_ms = NowMs();
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      continue;  // conn destructor closes the fd
    }
    conn->armed = EPOLLIN;
    conns_[conn->id] = conn;
  }
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  if (conn->http) {
    HandleHttpReadable(conn);
    return;
  }
  char buf[64 * 1024];
  bool eof = false;
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      ctr_bytes_in_.Increment(static_cast<uint64_t>(n));
      conn->bytes_in += static_cast<uint64_t>(n);
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;  // drained
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn->broken = true;
    conn->pending.clear();
    DiscardOutput(conn);
    return;
  }
  DrainDecoder(conn);
  // Responses of statements that ran inline leave in this loop turn.
  FlushWrites(conn);
  SyncSessionStats(conn);
  // EOF: the peer is done talking; finish its outstanding statements,
  // flush, close.
  if (eof && !conn->draining) BeginDrain(conn);
}

// ---- The metrics/health HTTP endpoint -------------------------------------

void Server::HandleHttpReadable(const std::shared_ptr<Connection>& conn) {
  char buf[16 * 1024];
  bool eof = false;
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      ctr_bytes_in_.Increment(static_cast<uint64_t>(n));
      conn->bytes_in += static_cast<uint64_t>(n);
      conn->http_request.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn->broken = true;
    DiscardOutput(conn);
    return;
  }
  if (!conn->draining) HandleHttpRequest(conn);
  // EOF before a complete request: nothing to answer, just close.
  if (eof && !conn->draining) BeginDrain(conn);
}

void Server::HandleHttpRequest(const std::shared_ptr<Connection>& conn) {
  auto respond = [&](const char* status, const std::string& content_type,
                     const std::string& body) {
    std::string response = "HTTP/1.1 ";
    response += status;
    response += "\r\nServer: erbium\r\nConnection: close\r\nContent-Type: ";
    response += content_type;
    response += "\r\nContent-Length: " + std::to_string(body.size());
    response += "\r\n\r\n";
    response += body;
    QueueBytes(conn, std::move(response));
    FlushWrites(conn);
    // One request per connection: stop reading, close once flushed.
    BeginDrain(conn);
  };

  if (conn->http_request.size() > kMaxHttpRequestBytes) {
    respond("431 Request Header Fields Too Large", "text/plain",
            "request too large\n");
    return;
  }
  size_t header_end = conn->http_request.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    header_end = conn->http_request.find("\n\n");  // lenient towards nc(1)
    if (header_end == std::string::npos) return;   // need more bytes
  }
  size_t line_end = conn->http_request.find_first_of("\r\n");
  std::string request_line = conn->http_request.substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      request_line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    respond("400 Bad Request", "text/plain", "malformed request line\n");
    return;
  }
  std::string method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    respond("405 Method Not Allowed", "text/plain", "only GET is served\n");
    return;
  }
  if (target == "/metrics") {
    ctr_scrapes_.Increment();
    ctr_scrape_requests_.Increment();
    uint64_t scrape_start = obs::MonotonicNowNs();
    gauge_uptime_.Set(
        static_cast<int64_t>((scrape_start - start_ns_) / 1'000'000'000ULL));
    std::string body = obs::ExportPrometheusText();
    hist_scrape_duration_us_.Observe(
        static_cast<double>(obs::MonotonicNowNs() - scrape_start) / 1e3);
    respond("200 OK", "text/plain; version=0.0.4; charset=utf-8",
            std::move(body));
    return;
  }
  if (target == "/healthz") {
    respond("200 OK", "text/plain", "ok\n");
    return;
  }
  respond("404 Not Found", "text/plain", "not found\n");
}

void Server::DrainDecoder(const std::shared_ptr<Connection>& conn) {
  while (!conn->draining && !conn->broken) {
    // Backpressure: at max_pipeline_depth stop decoding (and reading —
    // UpdateEpoll de-arms EPOLLIN via read_paused). Buffered bytes keep
    // their place; DrainCompletions resumes us as responses drain.
    int depth = static_cast<int>(conn->pending.size()) +
                (conn->executing ? 1 : 0);
    if (conn->session != nullptr && depth >= options_.max_pipeline_depth) {
      conn->read_paused = true;
      break;
    }
    FrameType type;
    std::string_view body;  // valid until the decoder's next Feed
    Result<bool> has = conn->decoder.Next(&type, &body);
    if (!has.ok()) {
      // Garbled bytes: framing is lost, so answer typed and close. The
      // responses of statements already decoded still flush first.
      ctr_protocol_errors_.Increment();
      QueueFrame(conn, FrameType::kError, EncodeErrorBody(has.status()));
      BeginDrain(conn);
      break;
    }
    if (!*has) break;
    conn->last_activity_ms = NowMs();
    HandleFrame(conn, type, body);
  }
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         FrameType type, std::string_view body) {
  // ---- Handshake: the first frame must be kHello. -------------------------
  if (conn->session == nullptr) {
    if (type != FrameType::kHello) {
      ctr_protocol_errors_.Increment();
      QueueFrame(conn, FrameType::kError,
                 EncodeErrorBody(Status::InvalidArgument(
                     "expected a Hello frame to open the session")));
      BeginDrain(conn);
      return;
    }
    Result<HelloBody> hello = DecodeHelloBody(body);
    if (!hello.ok()) {
      ctr_protocol_errors_.Increment();
      QueueFrame(conn, FrameType::kError, EncodeErrorBody(hello.status()));
      BeginDrain(conn);
      return;
    }
    if (hello->version != kProtocolVersion) {
      QueueFrame(conn, FrameType::kError,
                 EncodeErrorBody(Status::InvalidArgument(
                     "protocol version " + std::to_string(hello->version) +
                     " not supported (server speaks " +
                     std::to_string(kProtocolVersion) + ")")));
      BeginDrain(conn);
      return;
    }
    std::string name = hello->client_name.empty()
                           ? "conn-" + std::to_string(conn->id)
                           : hello->client_name;
    Result<std::unique_ptr<Session>> opened =
        manager_->OpenSession(name, conn->peer);
    if (!opened.ok()) {
      // Typed backpressure: at max_connections the client is told
      // kUnavailable and can retry, never silently dropped.
      QueueFrame(conn, FrameType::kError, EncodeErrorBody(opened.status()));
      BeginDrain(conn);
      return;
    }
    conn->session = std::move(opened).value();
    QueueFrame(conn, FrameType::kHelloOk,
               EncodeHelloOkBody(conn->session->id(), "ErbiumDB"));
    return;
  }

  // ---- Established session. -----------------------------------------------
  switch (type) {
    case FrameType::kPing:
      // Answered inline by the loop — a Ping measures reactor liveness
      // and may overtake queued statement responses.
      QueueFrame(conn, FrameType::kPong, "");
      return;
    case FrameType::kGoodbye:
      BeginDrain(conn);
      return;
    case FrameType::kStatement: {
      Result<std::string> statement = DecodeStatementBody(body);
      if (!statement.ok()) {
        ctr_protocol_errors_.Increment();
        QueueFrame(conn, FrameType::kError,
                   EncodeErrorBody(statement.status()));
        BeginDrain(conn);
        return;
      }
      PendingStatement item;
      item.text = std::move(*statement);
      item.decode_ns = obs::MonotonicNowNs();  // lifecycle t0
      conn->pending.push_back(std::move(item));
      hist_pipeline_depth_.Observe(static_cast<double>(
          conn->pending.size() + (conn->executing ? 1 : 0)));
      ScheduleNext(conn);
      return;
    }
    case FrameType::kStatementSeq: {
      Result<StatementSeqBody> statement = DecodeStatementSeqBody(body);
      if (!statement.ok()) {
        ctr_protocol_errors_.Increment();
        QueueFrame(conn, FrameType::kError,
                   EncodeErrorBody(statement.status()));
        BeginDrain(conn);
        return;
      }
      PendingStatement item;
      item.tagged = true;
      item.seq = statement->seq;
      item.text = std::move(statement->statement);
      item.decode_ns = obs::MonotonicNowNs();  // lifecycle t0
      conn->pending.push_back(std::move(item));
      hist_pipeline_depth_.Observe(static_cast<double>(
          conn->pending.size() + (conn->executing ? 1 : 0)));
      ScheduleNext(conn);
      return;
    }
    default:
      ctr_protocol_errors_.Increment();
      QueueFrame(conn, FrameType::kError,
                 EncodeErrorBody(Status::InvalidArgument(
                     "unexpected frame type " +
                     std::to_string(static_cast<int>(type)))));
      BeginDrain(conn);
      return;
  }
}

// ---- Statement execution --------------------------------------------------

namespace {

/// The response frame for one statement, shared by the inline and pooled
/// paths; a result is encoded straight into its frame. Seq-tagged results
/// carry the server-timing footer (append-only, so v1 batch clients that
/// don't ask for timing still decode); write_stall can't be known yet —
/// it is server-side telemetry.
std::string EncodeStatementResponse(
    bool tagged, uint64_t seq, const Result<api::StatementOutcome>& outcome,
    uint64_t queue_wait_ns, uint64_t execute_ns) {
  if (!tagged) {
    return outcome.ok() ? EncodeResultFrame(*outcome)
                        : EncodeFrame(FrameType::kError,
                                      EncodeErrorBody(outcome.status()));
  }
  if (!outcome.ok()) {
    return EncodeFrame(FrameType::kErrorSeq,
                       EncodeErrorSeqBody(seq, outcome.status()));
  }
  ServerTiming timing;
  timing.present = true;
  timing.queue_wait_us = queue_wait_ns / 1000;
  timing.execute_us = execute_ns / 1000;
  return EncodeResultSeqFrame(seq, *outcome, timing);
}

}  // namespace

void Server::ScheduleNext(const std::shared_ptr<Connection>& conn) {
  // Run-to-completion: cached short SELECTs execute right here on the
  // loop, in order, until one must go to the pool (a miss, a long plan,
  // anything but a SELECT, or the statement lock held exclusively). The
  // pooled one then holds the connection's later statements back.
  while (!conn->executing && !conn->pending.empty() && !conn->broken) {
    std::optional<Result<api::StatementOutcome>> outcome;
    std::optional<Completion> done = RunStatement(
        *conn, conn->pending.front(), /*inline_only=*/true, &outcome);
    if (done.has_value()) {
      conn->pending.pop_front();
      ctr_statements_inline_.Increment();
      QueueBytes(conn, std::move(done->frame), done->telemetry_seq,
                 done->decode_ns, done->done_ns);
      continue;
    }
    PendingStatement item = std::move(conn->pending.front());
    conn->pending.pop_front();
    conn->executing = true;
    ctr_statements_pooled_.Increment();
    gauge_worker_queue_.Add(1);
    workers_->Submit([this, conn, item = std::move(item)]() mutable {
      ExecuteOnWorker(conn, std::move(item));
    });
  }
}

std::optional<Server::Completion> Server::RunStatement(
    const Connection& conn, const PendingStatement& item, bool inline_only,
    std::optional<Result<api::StatementOutcome>>* outcome) {
  // Lifecycle t1/t2 bracket the execute window; with t0 (decode) and t3
  // (flush) these are the statement's entire clock-read budget.
  uint64_t exec_start_ns = obs::MonotonicNowNs();
  uint64_t queue_wait_ns = exec_start_ns - item.decode_ns;
  uint64_t telemetry_seq = 0;
  {
    obs::ScopedStatementLifecycle lifecycle(queue_wait_ns);
    if (inline_only) {
      *outcome = conn.session->TryExecuteInline(item.text);
    } else {
      *outcome = conn.session->Execute(item.text);
    }
    telemetry_seq = lifecycle.recorded_seq();
  }
  if (!outcome->has_value()) return std::nullopt;
  uint64_t exec_end_ns = obs::MonotonicNowNs();
  hist_queue_wait_us_.Observe(static_cast<double>(queue_wait_ns) / 1e3);
  hist_execute_us_.Observe(static_cast<double>(exec_end_ns - exec_start_ns) /
                           1e3);
  return Completion{conn.id,
                    EncodeStatementResponse(item.tagged, item.seq, **outcome,
                                            queue_wait_ns,
                                            exec_end_ns - exec_start_ns),
                    telemetry_seq, item.decode_ns, exec_end_ns};
}

void Server::ExecuteOnWorker(std::shared_ptr<Connection> conn,
                             PendingStatement item) {
  gauge_worker_queue_.Add(-1);
  std::optional<Result<api::StatementOutcome>> outcome;
  Completion done =
      *RunStatement(*conn, item, /*inline_only=*/false, &outcome);
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(done));
  }
  WakeLoop();
  // Only now free the materialized rows: the loop flushes the frame
  // meanwhile instead of waiting out the teardown of a large result.
  outcome.reset();
}

void Server::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  // One clock read covers the whole batch: the lag of each completion is
  // measured from its push time (the worker's t2) to this dispatch.
  uint64_t drain_ns = batch.empty() ? 0 : obs::MonotonicNowNs();
  for (Completion& done : batch) {
    if (done.done_ns != 0 && drain_ns > done.done_ns) {
      hist_loop_lag_us_.Observe(static_cast<double>(drain_ns - done.done_ns) /
                                1e3);
    }
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;
    std::shared_ptr<Connection> conn = it->second;
    conn->executing = false;
    if (!conn->broken) {
      QueueBytes(conn, std::move(done.frame), done.telemetry_seq,
                 done.decode_ns, done.done_ns);
    }
    ScheduleNext(conn);
    if (conn->read_paused) {
      // Below the pipeline bound again: decode what we buffered, then
      // let UpdateEpoll re-arm EPOLLIN.
      conn->read_paused = false;
      DrainDecoder(conn);
    }
    FlushWrites(conn);
    SyncSessionStats(conn);
    UpdateEpoll(conn);
    MaybeClose(conn);
  }
}

// ---- Write path + lifecycle -----------------------------------------------

void Server::QueueFrame(const std::shared_ptr<Connection>& conn,
                        FrameType type, const std::string& body) {
  if (conn->fd < 0 || conn->broken) return;
  QueueBytes(conn, EncodeFrame(type, body));
  FlushWrites(conn);
}

void Server::QueueBytes(const std::shared_ptr<Connection>& conn,
                        std::string bytes, uint64_t telemetry_seq,
                        uint64_t decode_ns, uint64_t done_ns) {
  if (conn->fd < 0 || conn->broken) return;
  size_t size = bytes.size();
  Connection::OutFrame frame;
  frame.bytes = std::move(bytes);
  frame.telemetry_seq = telemetry_seq;
  frame.decode_ns = decode_ns;
  frame.done_ns = done_ns;
  conn->out.push_back(std::move(frame));
  conn->out_bytes += size;
  if (conn->out_bytes > conn->peak_out_bytes) {
    conn->peak_out_bytes = conn->out_bytes;
  }
  write_backlog_bytes_ += static_cast<int64_t>(size);
  gauge_write_backlog_.Set(write_backlog_bytes_);
}

void Server::DiscardOutput(const std::shared_ptr<Connection>& conn) {
  if (conn->out_bytes > 0) {
    write_backlog_bytes_ -= static_cast<int64_t>(conn->out_bytes);
    gauge_write_backlog_.Set(write_backlog_bytes_);
  }
  conn->out.clear();
  conn->out_bytes = 0;
  conn->out_offset = 0;
}

void Server::FlushWrites(const std::shared_ptr<Connection>& conn) {
  while (conn->fd >= 0 && !conn->broken && !conn->out.empty()) {
    const Connection::OutFrame& front = conn->out.front();
    ssize_t n = ::send(conn->fd, front.bytes.data() + conn->out_offset,
                       front.bytes.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // EPOLLOUT arms
      conn->broken = true;
      conn->pending.clear();
      DiscardOutput(conn);
      break;
    }
    ctr_bytes_out_.Increment(static_cast<uint64_t>(n));
    conn->bytes_out += static_cast<uint64_t>(n);
    conn->out_bytes -= static_cast<size_t>(n);
    write_backlog_bytes_ -= n;
    conn->out_offset += static_cast<size_t>(n);
    if (conn->out_offset == front.bytes.size()) {
      if (front.decode_ns != 0) {
        // Lifecycle t3: the statement's response has fully left the
        // socket. write_stall = t3 - t2, total = t3 - t0; the telemetry
        // entry recorded at execute time gets its tail back-filled.
        uint64_t flushed_ns = obs::MonotonicNowNs();
        uint64_t stall_ns =
            flushed_ns > front.done_ns ? flushed_ns - front.done_ns : 0;
        uint64_t total_ns =
            flushed_ns > front.decode_ns ? flushed_ns - front.decode_ns : 0;
        hist_write_stall_us_.Observe(static_cast<double>(stall_ns) / 1e3);
        hist_total_us_.Observe(static_cast<double>(total_ns) / 1e3);
        if (front.telemetry_seq != 0) {
          obs::QueryTelemetry::Global().AnnotateWriteStall(
              front.telemetry_seq, stall_ns, total_ns);
        }
      }
      conn->out.pop_front();
      conn->out_offset = 0;
    }
  }
  gauge_write_backlog_.Set(write_backlog_bytes_);
}

void Server::BeginDrain(const std::shared_ptr<Connection>& conn) {
  conn->draining = true;
  UpdateEpoll(conn);
  MaybeClose(conn);
}

void Server::UpdateEpoll(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  uint32_t want = 0;
  if (!conn->draining && !conn->broken && !conn->read_paused) {
    want |= EPOLLIN;
  }
  if (!conn->out.empty() && !conn->broken) want |= EPOLLOUT;
  if (want == conn->armed) return;
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = want;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->armed = want;
}

void Server::MaybeClose(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0 || conn->executing) return;
  if (conn->broken) {
    CloseConnection(conn);
    return;
  }
  if (conn->draining && conn->pending.empty() && conn->out.empty()) {
    CloseConnection(conn);
  }
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  DiscardOutput(conn);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  // Erasing drops the loop's reference; the Session (and its admission
  // slot) dies with the last reference — usually right here.
  conns_.erase(conn->id);
}

void Server::SyncSessionStats(const std::shared_ptr<Connection>& conn) {
  if (conn->session == nullptr) return;
  uint64_t bytes_in = conn->bytes_in;
  uint64_t bytes_out = conn->bytes_out;
  uint64_t depth = conn->pending.size() + (conn->executing ? 1 : 0);
  uint64_t peak = conn->peak_out_bytes;
  obs::SessionRegistry::Global().Update(
      conn->session->id(), [&](obs::SessionInfo* info) {
        info->bytes_in = bytes_in;
        info->bytes_out = bytes_out;
        info->pipeline_depth = depth;
        info->peak_write_buffer = peak;
      });
}

// ---- Shutdown -------------------------------------------------------------

Status Server::Stop() {
  if (stopping_.exchange(true)) return Status::OK();
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Join the workers before closing the eventfd: a worker between its
  // completion push and WakeLoop must not write a dead (reusable) fd.
  workers_.reset();
  if (listen_fd_ >= 0) {
    // Only reachable when Start() failed before the loop thread ran.
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (metrics_listen_fd_ >= 0) {
    ::close(metrics_listen_fd_);
    metrics_listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (options_.checkpoint_on_shutdown && manager_ != nullptr) {
    return manager_->FinalCheckpoint();
  }
  return Status::OK();
}

}  // namespace server
}  // namespace erbium
