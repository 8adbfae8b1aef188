#include "server/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "durability/serde.h"

namespace erbium {
namespace server {

namespace {

using durability::ByteReader;
using durability::Crc32;
using durability::PutString;
using durability::PutU8;
using durability::PutU32;
using durability::PutU64;
using durability::PutValues;

constexpr size_t kFrameHeaderBytes = 8;
/// A result frame's first allocation: room for a short result (a point
/// read's row) without regrowing.
constexpr size_t kInitialResultFrameBytes = 256;
/// Rows a result body encodes before it reserves room for the rest from
/// their average size (plus a quarter for rows that run larger).
constexpr size_t kSizingRows = 64;
/// Room kept for what follows the rows (the server-timing footer).
constexpr size_t kTrailerSlack = 64;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Starts a frame in *out: the header's bytes, patched by FinishFrame
/// once the payload is complete, then the type tag.
void BeginFrame(FrameType type, std::string* out) {
  out->append(kFrameHeaderBytes, '\0');
  PutU8(static_cast<uint8_t>(type), out);
}

/// Patches the payload length and CRC into the header BeginFrame left.
void FinishFrame(std::string* frame) {
  const size_t payload_len = frame->size() - kFrameHeaderBytes;
  std::string header;
  PutU32(static_cast<uint32_t>(payload_len), &header);
  PutU32(Crc32(frame->data() + kFrameHeaderBytes, payload_len), &header);
  frame->replace(0, kFrameHeaderBytes, header);
}

void AppendResultBody(const api::StatementOutcome& outcome, std::string* out) {
  PutU8(static_cast<uint8_t>(outcome.shape), out);
  PutString(outcome.message, out);
  PutU32(static_cast<uint32_t>(outcome.result.columns.size()), out);
  for (const std::string& column : outcome.result.columns) {
    PutString(column, out);
  }
  const std::vector<Row>& rows = outcome.result.rows;
  PutU32(static_cast<uint32_t>(rows.size()), out);
  const size_t rows_begin = out->size();
  for (size_t i = 0; i < rows.size(); ++i) {
    PutValues(rows[i], out);
    if (i + 1 == kSizingRows && rows.size() > kSizingRows) {
      const size_t per_row = (out->size() - rows_begin) / kSizingRows;
      const size_t rest = rows.size() - kSizingRows;
      out->reserve(out->size() + per_row * rest + per_row * rest / 4 +
                   kTrailerSlack);
    }
  }
}

void AppendServerTimingFooter(const ServerTiming& timing, std::string* out) {
  PutU8(kServerTimingMarker, out);
  PutU8(2, out);
  PutString("queue_wait_us", out);
  PutU64(timing.queue_wait_us, out);
  PutString("execute_us", out);
  PutU64(timing.execute_us, out);
}

}  // namespace

std::string EncodeFrame(FrameType type, const std::string& body) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + 1 + body.size());
  BeginFrame(type, &frame);
  frame += body;
  FinishFrame(&frame);
  return frame;
}

std::string EncodeResultFrame(const api::StatementOutcome& outcome) {
  std::string frame;
  frame.reserve(kInitialResultFrameBytes);
  BeginFrame(FrameType::kResult, &frame);
  AppendResultBody(outcome, &frame);
  FinishFrame(&frame);
  return frame;
}

std::string EncodeResultSeqFrame(uint64_t seq,
                                 const api::StatementOutcome& outcome,
                                 const ServerTiming& timing) {
  std::string frame;
  frame.reserve(kInitialResultFrameBytes);
  BeginFrame(FrameType::kResultSeq, &frame);
  PutU64(seq, &frame);
  AppendResultBody(outcome, &frame);
  AppendServerTimingFooter(timing, &frame);
  FinishFrame(&frame);
  return frame;
}

std::string EncodeHelloBody(const std::string& client_name) {
  std::string body;
  PutU32(kProtocolVersion, &body);
  PutString(client_name, &body);
  return body;
}

std::string EncodeHelloOkBody(uint64_t session_id, const std::string& banner) {
  std::string body;
  PutU32(kProtocolVersion, &body);
  PutU64(session_id, &body);
  PutString(banner, &body);
  return body;
}

std::string EncodeStatementBody(const std::string& statement) {
  std::string body;
  PutString(statement, &body);
  return body;
}

std::string EncodeResultBody(const api::StatementOutcome& outcome) {
  std::string body;
  AppendResultBody(outcome, &body);
  return body;
}

std::string EncodeErrorBody(const Status& status) {
  std::string body;
  PutU32(static_cast<uint32_t>(StatusCodeToWire(status.code())), &body);
  PutString(status.message(), &body);
  return body;
}

std::string EncodeStatementSeqBody(uint64_t seq, const std::string& statement) {
  std::string body;
  PutU64(seq, &body);
  PutString(statement, &body);
  return body;
}

std::string EncodeResultSeqBody(uint64_t seq,
                                const api::StatementOutcome& outcome) {
  std::string body;
  PutU64(seq, &body);
  AppendResultBody(outcome, &body);
  return body;
}

std::string EncodeErrorSeqBody(uint64_t seq, const Status& status) {
  std::string body;
  PutU64(seq, &body);
  body += EncodeErrorBody(status);
  return body;
}

Result<HelloBody> DecodeHelloBody(std::string_view body) {
  ByteReader reader(body.data(), body.size());
  HelloBody hello;
  ERBIUM_ASSIGN_OR_RETURN(hello.version, reader.U32());
  ERBIUM_ASSIGN_OR_RETURN(hello.client_name, reader.String());
  return hello;
}

Result<HelloOkBody> DecodeHelloOkBody(std::string_view body) {
  ByteReader reader(body.data(), body.size());
  HelloOkBody hello;
  ERBIUM_ASSIGN_OR_RETURN(hello.version, reader.U32());
  ERBIUM_ASSIGN_OR_RETURN(hello.session_id, reader.U64());
  ERBIUM_ASSIGN_OR_RETURN(hello.banner, reader.String());
  return hello;
}

Result<std::string> DecodeStatementBody(std::string_view body) {
  ByteReader reader(body.data(), body.size());
  return reader.String();
}

std::string EncodeServerTimingFooter(const ServerTiming& timing) {
  std::string footer;
  AppendServerTimingFooter(timing, &footer);
  return footer;
}

Result<api::StatementOutcome> DecodeResultBody(std::string_view body) {
  return DecodeResultBody(body, nullptr);
}

Result<api::StatementOutcome> DecodeResultBody(std::string_view body,
                                               ServerTiming* timing) {
  ByteReader reader(body.data(), body.size());
  api::StatementOutcome outcome;
  ERBIUM_ASSIGN_OR_RETURN(uint8_t shape, reader.U8());
  if (shape > static_cast<uint8_t>(api::OutputShape::kLines)) {
    return Status::IOError("result frame carries unknown output shape " +
                           std::to_string(shape));
  }
  outcome.shape = static_cast<api::OutputShape>(shape);
  ERBIUM_ASSIGN_OR_RETURN(outcome.message, reader.String());
  ERBIUM_ASSIGN_OR_RETURN(uint32_t n_columns, reader.U32());
  // Trust counts only as far as the bytes present (a column name costs
  // at least its 4-byte length prefix).
  if (n_columns > reader.remaining() / 4) {
    return Status::IOError("result frame column count exceeds frame size");
  }
  outcome.result.columns.reserve(n_columns);
  for (uint32_t i = 0; i < n_columns; ++i) {
    ERBIUM_ASSIGN_OR_RETURN(std::string column, reader.String());
    outcome.result.columns.push_back(std::move(column));
  }
  ERBIUM_ASSIGN_OR_RETURN(uint32_t n_rows, reader.U32());
  if (n_rows > reader.remaining() / 4) {
    return Status::IOError("result frame row count exceeds frame size");
  }
  outcome.result.rows.resize(n_rows);
  for (Row& row : outcome.result.rows) {
    ERBIUM_RETURN_NOT_OK(reader.ReadValuesInto(&row));
  }
  if (!reader.AtEnd() && timing != nullptr) {
    // Optional server-timing footer. Fields are name-tagged so the
    // server may append new ones without a version bump; unknown names
    // are skipped. A malformed footer is a framing error like any other
    // truncated body.
    ERBIUM_ASSIGN_OR_RETURN(uint8_t marker, reader.U8());
    if (marker != kServerTimingMarker) {
      return Status::IOError("result frame has trailing bytes");
    }
    ERBIUM_ASSIGN_OR_RETURN(uint8_t n_fields, reader.U8());
    for (uint8_t i = 0; i < n_fields; ++i) {
      ERBIUM_ASSIGN_OR_RETURN(std::string name, reader.String());
      ERBIUM_ASSIGN_OR_RETURN(uint64_t value, reader.U64());
      if (name == "queue_wait_us") {
        timing->queue_wait_us = value;
      } else if (name == "execute_us") {
        timing->execute_us = value;
      }
    }
    timing->present = true;
  }
  if (!reader.AtEnd()) {
    return Status::IOError("result frame has trailing bytes");
  }
  return outcome;
}

Result<StatementSeqBody> DecodeStatementSeqBody(std::string_view body) {
  ByteReader reader(body.data(), body.size());
  StatementSeqBody out;
  ERBIUM_ASSIGN_OR_RETURN(out.seq, reader.U64());
  ERBIUM_ASSIGN_OR_RETURN(out.statement, reader.String());
  return out;
}

Result<uint64_t> DecodeSeqPrefix(std::string_view body,
                                 std::string_view* rest) {
  ByteReader reader(body.data(), body.size());
  ERBIUM_ASSIGN_OR_RETURN(uint64_t seq, reader.U64());
  *rest = body.substr(8);
  return seq;
}

Result<uint64_t> DecodeSeqPrefix(std::string_view body, std::string* rest) {
  std::string_view view;
  ERBIUM_ASSIGN_OR_RETURN(uint64_t seq, DecodeSeqPrefix(body, &view));
  rest->assign(view);
  return seq;
}

Status DecodeErrorBody(std::string_view body, Status* out) {
  ByteReader reader(body.data(), body.size());
  ERBIUM_ASSIGN_OR_RETURN(uint32_t wire_code, reader.U32());
  ERBIUM_ASSIGN_OR_RETURN(std::string message, reader.String());
  *out = Status(StatusCodeFromWire(static_cast<int32_t>(wire_code)),
                std::move(message));
  return Status::OK();
}

void FrameDecoder::Feed(const char* data, size_t size) {
  // Compact the consumed prefix before growing — keeps the buffer bounded
  // by (one partial frame + one read) instead of the connection's history.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, size);
}

Result<bool> FrameDecoder::Next(FrameType* type, std::string_view* body) {
  if (buffered() < kFrameHeaderBytes) return false;
  ByteReader head(buf_.data() + pos_, kFrameHeaderBytes);
  uint32_t payload_len = head.U32().value();
  uint32_t expected_crc = head.U32().value();
  if (payload_len == 0) {
    return Status::IOError("frame has empty payload");
  }
  if (payload_len > kMaxFramePayloadBytes) {
    return Status::IOError("frame payload of " + std::to_string(payload_len) +
                           " bytes exceeds the " +
                           std::to_string(kMaxFramePayloadBytes) +
                           "-byte limit");
  }
  if (buffered() < kFrameHeaderBytes + payload_len) return false;
  const char* payload = buf_.data() + pos_ + kFrameHeaderBytes;
  if (Crc32(payload, payload_len) != expected_crc) {
    return Status::IOError("frame CRC mismatch");
  }
  *type = static_cast<FrameType>(static_cast<uint8_t>(payload[0]));
  *body = std::string_view(payload + 1, payload_len - 1);
  pos_ += kFrameHeaderBytes + payload_len;
  return true;
}

Result<bool> FrameDecoder::Next(Frame* out) {
  std::string_view body;
  ERBIUM_ASSIGN_OR_RETURN(bool has, Next(&out->type, &body));
  if (has) out->body.assign(body);
  return has;
}

FrameSocket::~FrameSocket() {
  if (fd_ >= 0) ::close(fd_);
}

Status FrameSocket::Send(FrameType type, const std::string& body) {
  std::string frame = EncodeFrame(type, body);
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not kill the
    // process with SIGPIPE.
    ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

namespace {

/// Fills the buffers `iov` describes, in order (one recvmsg may fill
/// several), honoring an absolute deadline (ms since the steady clock
/// epoch; negative = no deadline). `any_read` reports whether at least
/// one byte arrived before an EOF/timeout, so callers can tell an orderly
/// close (EOF at a frame boundary) from a torn frame.
Status ReadExact(int fd, struct iovec* iov, int iovcnt, int64_t deadline_ms,
                 bool* any_read) {
  while (true) {
    while (iovcnt > 0 && iov->iov_len == 0) {
      ++iov;
      --iovcnt;
    }
    if (iovcnt == 0) return Status::OK();
    if (deadline_ms >= 0) {
      int64_t remaining = deadline_ms - NowMs();
      if (remaining <= 0) {
        return Status::DeadlineExceeded("read timed out");
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("poll failed: ") +
                               std::strerror(errno));
      }
      if (rc == 0) {
        return Status::DeadlineExceeded("read timed out");
      }
    }
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    ssize_t n = ::recvmsg(fd, &msg, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::Unavailable("peer closed the connection");
    }
    *any_read = true;
    for (size_t left = static_cast<size_t>(n); left > 0;) {
      size_t take = std::min(left, iov->iov_len);
      iov->iov_base = static_cast<char*>(iov->iov_base) + take;
      iov->iov_len -= take;
      left -= take;
      if (iov->iov_len == 0) {
        ++iov;
        --iovcnt;
      }
    }
  }
}

}  // namespace

Result<Frame> FrameSocket::Recv(int timeout_ms) {
  int64_t deadline_ms = timeout_ms < 0 ? -1 : NowMs() + timeout_ms;
  char header[kFrameHeaderBytes];
  struct iovec header_iov = {header, sizeof(header)};
  bool any_read = false;
  Status st = ReadExact(fd_, &header_iov, 1, deadline_ms, &any_read);
  if (!st.ok()) {
    // EOF or timeout cleanly between frames keeps its taxonomy; the same
    // condition mid-frame means the peer tore a frame.
    if (any_read && st.code() != StatusCode::kIOError) {
      return Status::IOError("connection dropped mid-frame: " + st.message());
    }
    return st;
  }
  ByteReader head(header, sizeof(header));
  uint32_t payload_len = head.U32().value();
  uint32_t expected_crc = head.U32().value();
  if (payload_len == 0) {
    return Status::IOError("frame has empty payload");
  }
  if (payload_len > kMaxFramePayloadBytes) {
    return Status::IOError("frame payload of " + std::to_string(payload_len) +
                           " bytes exceeds the " +
                           std::to_string(kMaxFramePayloadBytes) +
                           "-byte limit");
  }
  // The type tag and the body land in their own places: no payload copy.
  Frame frame;
  uint8_t type = 0;
  frame.body.resize(payload_len - 1);
  struct iovec payload_iov[2] = {{&type, 1},
                                 {frame.body.data(), frame.body.size()}};
  st = ReadExact(fd_, payload_iov, 2, deadline_ms, &any_read);
  if (!st.ok()) {
    if (st.code() != StatusCode::kIOError) {
      return Status::IOError("connection dropped mid-frame: " + st.message());
    }
    return st;
  }
  if (Crc32(frame.body.data(), frame.body.size(), Crc32(&type, 1)) !=
      expected_crc) {
    return Status::IOError("frame CRC mismatch");
  }
  frame.type = static_cast<FrameType>(type);
  return frame;
}

void FrameSocket::ShutdownRead() { ::shutdown(fd_, SHUT_RD); }

}  // namespace server
}  // namespace erbium
