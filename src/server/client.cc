#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace erbium {
namespace server {

namespace {

/// One blocking TCP connect attempt. Targets are local or LAN, where
/// connect either succeeds promptly or fails with ECONNREFUSED; the
/// retry loop in Connect() handles a server that is still binding.
Result<int> ConnectOnce(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparseable host '" + host + "'");
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    Status st = Status::Unavailable("connect to " + host + ":" +
                                    std::to_string(port) +
                                    " failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(Options options) {
  std::unique_ptr<Client> client(new Client(std::move(options)));
  const Options& opt = client->options_;

  int fd = -1;
  Status last = Status::OK();
  for (int attempt = 0; attempt <= opt.connect_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opt.connect_retry_pause_ms));
    }
    Result<int> connected = ConnectOnce(opt.host, opt.port);
    if (connected.ok()) {
      fd = *connected;
      break;
    }
    last = connected.status();
  }
  if (fd < 0) return last;
  client->sock_ = std::make_unique<FrameSocket>(fd);

  ERBIUM_RETURN_NOT_OK(
      client->sock_->Send(FrameType::kHello, EncodeHelloBody(opt.name)));
  ERBIUM_ASSIGN_OR_RETURN(Frame reply,
                          client->sock_->Recv(opt.connect_timeout_ms));
  if (reply.type == FrameType::kError) {
    // The server refused the session (max connections, bad version);
    // surface its typed status directly.
    Status refused;
    ERBIUM_RETURN_NOT_OK(DecodeErrorBody(reply.body, &refused));
    return refused;
  }
  if (reply.type != FrameType::kHelloOk) {
    return Status::IOError("handshake got unexpected frame type " +
                           std::to_string(static_cast<int>(reply.type)));
  }
  ERBIUM_ASSIGN_OR_RETURN(HelloOkBody hello, DecodeHelloOkBody(reply.body));
  if (hello.version != kProtocolVersion) {
    return Status::InvalidArgument(
        "server speaks protocol version " + std::to_string(hello.version) +
        ", this client speaks " + std::to_string(kProtocolVersion));
  }
  client->session_id_ = hello.session_id;
  client->banner_ = hello.banner;
  return client;
}

Client::~Client() { Close(); }

void Client::Close() {
  if (sock_ != nullptr && broken_.ok()) {
    sock_->Send(FrameType::kGoodbye, "");
  }
  sock_.reset();
  if (broken_.ok()) {
    broken_ = Status::Unavailable("client is closed");
  }
}

Result<Frame> Client::RoundTrip(FrameType type, const std::string& body) {
  if (sock_ == nullptr || !broken_.ok()) {
    return broken_.ok() ? Status::Unavailable("client is closed") : broken_;
  }
  Status st = sock_->Send(type, body);
  if (!st.ok()) {
    broken_ = st;
    return st;
  }
  Result<Frame> reply = sock_->Recv(options_.recv_timeout_ms);
  if (!reply.ok()) {
    broken_ = reply.status();
    return broken_;
  }
  return reply;
}

Result<api::StatementOutcome> Client::Execute(const std::string& statement) {
  ERBIUM_ASSIGN_OR_RETURN(
      Frame reply,
      RoundTrip(FrameType::kStatement, EncodeStatementBody(statement)));
  if (reply.type == FrameType::kError) {
    Status remote;
    ERBIUM_RETURN_NOT_OK(DecodeErrorBody(reply.body, &remote));
    return remote;
  }
  if (reply.type != FrameType::kResult) {
    broken_ = Status::IOError("expected a Result frame, got type " +
                              std::to_string(static_cast<int>(reply.type)));
    return broken_;
  }
  return DecodeResultBody(reply.body);
}

Result<std::vector<Client::BatchItem>> Client::ExecuteBatch(
    const std::vector<std::string>& statements) {
  if (sock_ == nullptr || !broken_.ok()) {
    return broken_.ok() ? Status::Unavailable("client is closed") : broken_;
  }
  if (statements.empty()) return std::vector<BatchItem>{};

  // Phase 1: pipeline — every statement goes out before any reply is
  // read. The socket's send buffer plus the server's pending queue
  // absorb the burst; the server stops reading (TCP backpressure) past
  // its pipeline depth rather than dropping anything.
  uint64_t first_seq = next_seq_;
  for (const std::string& statement : statements) {
    Status st = sock_->Send(FrameType::kStatementSeq,
                            EncodeStatementSeqBody(next_seq_, statement));
    if (!st.ok()) {
      broken_ = st;
      return st;
    }
    ++next_seq_;
  }

  // Phase 2: collect — the server answers in order with matching tags,
  // so the i-th reply must carry seq first_seq + i. A mismatch means
  // the stream is corrupt beyond recovery: poison.
  std::vector<BatchItem> items;
  items.reserve(statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    Result<Frame> reply = sock_->Recv(options_.recv_timeout_ms);
    if (!reply.ok()) {
      broken_ = reply.status();
      return broken_;
    }
    if (reply->type != FrameType::kResultSeq &&
        reply->type != FrameType::kErrorSeq) {
      broken_ = Status::IOError(
          "expected a seq-tagged response frame, got type " +
          std::to_string(static_cast<int>(reply->type)));
      return broken_;
    }
    std::string_view body;  // views reply->body: decoded where it lies
    Result<uint64_t> seq = DecodeSeqPrefix(reply->body, &body);
    if (!seq.ok()) {
      broken_ = seq.status();
      return broken_;
    }
    if (*seq != first_seq + i) {
      broken_ = Status::IOError(
          "pipelined response out of order: expected seq " +
          std::to_string(first_seq + i) + ", got " + std::to_string(*seq));
      return broken_;
    }
    BatchItem item;
    if (reply->type == FrameType::kErrorSeq) {
      // A per-statement failure — the batch (and connection) live on.
      ERBIUM_RETURN_NOT_OK(DecodeErrorBody(body, &item.status));
    } else {
      ERBIUM_ASSIGN_OR_RETURN(item.outcome,
                              DecodeResultBody(body, &item.timing));
    }
    items.push_back(std::move(item));
  }
  return items;
}

Status Client::Ping() {
  ERBIUM_ASSIGN_OR_RETURN(Frame reply, RoundTrip(FrameType::kPing, ""));
  if (reply.type == FrameType::kError) {
    Status remote;
    ERBIUM_RETURN_NOT_OK(DecodeErrorBody(reply.body, &remote));
    return remote;
  }
  if (reply.type != FrameType::kPong) {
    broken_ = Status::IOError("expected a Pong frame, got type " +
                              std::to_string(static_cast<int>(reply.type)));
    return broken_;
  }
  return Status::OK();
}

}  // namespace server
}  // namespace erbium
