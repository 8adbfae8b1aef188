#ifndef ERBIUM_SERVER_PROTOCOL_H_
#define ERBIUM_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "api/statement_runner.h"
#include "common/status.h"
#include "erql/query_engine.h"

namespace erbium {
namespace server {

/// The ErbiumDB wire protocol: length-prefixed binary frames over TCP,
/// reusing the WAL's little-endian serde helpers and CRC so both on-disk
/// and on-wire bytes share one encoding discipline.
///
/// Frame layout (everything little-endian):
///
///   [u32 payload_len][u32 crc32(payload)][payload]
///   payload = [u8 frame_type][type-specific body]
///
/// Conversation: the client opens with kHello and the server answers
/// kHelloOk (or kError, e.g. when at max connections). After that each
/// client frame gets exactly one server frame:
///
///   kStatement    -> kResult | kError
///   kStatementSeq -> kResultSeq | kErrorSeq   (pipelined, tagged)
///   kPing         -> kPong
///   kGoodbye      -> (none; both sides close)
///
/// Pipelining: a client may send any number of kStatementSeq frames
/// without waiting for replies. The server executes each session's
/// statements strictly in arrival order and answers with the same `seq`
/// tag, in the same order — different sessions proceed concurrently,
/// one session never reorders. kPing is answered immediately and may
/// therefore overtake pending pipelined responses; kStatement (untagged)
/// keeps its classic one-in-flight request/response use. Statements
/// queued past the server's per-connection pipeline depth are not
/// dropped — the server simply stops reading that socket until the
/// queue drains (TCP backpressure).
///
/// Bodies:
///   kHello        u32 protocol_version, string client_name
///   kHelloOk      u32 protocol_version, u64 session_id, string banner
///   kStatement    string statement_text
///   kStatementSeq u64 seq, string statement_text
///   kPing         (empty)
///   kGoodbye      (empty)
///   kResult       u8 shape (api::OutputShape), string message,
///                 u32 n_columns, n_columns * string,
///                 u32 n_rows, n_rows * Values (serde PutValues)
///   kResultSeq    u64 seq, then a kResult body
///   kError        u32 status_code (StatusCodeToWire), string message
///   kErrorSeq     u64 seq, then a kError body
///   kPong         (empty)
///
/// Malformed input (bad CRC, oversized length, truncated frame, unknown
/// type) is always answered with a typed kError frame when the socket
/// still permits a write, then the connection closes — never a silent
/// drop, never a crash.
enum class FrameType : uint8_t {
  // Client -> server.
  kHello = 1,
  kStatement = 2,
  kPing = 3,
  kGoodbye = 4,
  kStatementSeq = 5,
  // Server -> client (high bit set).
  kHelloOk = 0x81,
  kResult = 0x82,
  kError = 0x83,
  kPong = 0x84,
  kResultSeq = 0x85,
  kErrorSeq = 0x86,
};

/// Bumped only for incompatible changes; the server rejects mismatches
/// in the handshake with kError(InvalidArgument). New frame *types* are
/// append-only and do not bump the version: a peer that never sends
/// kStatementSeq never sees a seq-tagged reply.
constexpr uint32_t kProtocolVersion = 1;

/// Upper bound on a frame payload. A length prefix above this is
/// rejected before any buffering, so a garbage header cannot cause a
/// multi-gigabyte allocation. 16 MiB comfortably fits real result sets;
/// larger ones should page through LIMIT.
constexpr uint32_t kMaxFramePayloadBytes = 16u << 20;

/// A decoded frame: the type tag plus the raw type-specific body.
struct Frame {
  FrameType type = FrameType::kError;
  std::string body;
};

/// Encodes a complete wire frame (header + CRC + payload).
std::string EncodeFrame(FrameType type, const std::string& body);

// ---- Body encoders --------------------------------------------------------

std::string EncodeHelloBody(const std::string& client_name);
std::string EncodeHelloOkBody(uint64_t session_id, const std::string& banner);
std::string EncodeStatementBody(const std::string& statement);
std::string EncodeResultBody(const api::StatementOutcome& outcome);
std::string EncodeErrorBody(const Status& status);
/// Seq-tagged variants for pipelining: `u64 seq` then the untagged body.
std::string EncodeStatementSeqBody(uint64_t seq, const std::string& statement);
std::string EncodeResultSeqBody(uint64_t seq,
                                const api::StatementOutcome& outcome);
std::string EncodeErrorSeqBody(uint64_t seq, const Status& status);

// ---- Body decoders --------------------------------------------------------
// Each reads the body where it lies and fails with Status::IOError on
// truncated or malformed bodies; a decoded kError body comes back as the
// transported Status itself.

struct HelloBody {
  uint32_t version = 0;
  std::string client_name;
};
Result<HelloBody> DecodeHelloBody(std::string_view body);

struct HelloOkBody {
  uint32_t version = 0;
  uint64_t session_id = 0;
  std::string banner;
};
Result<HelloOkBody> DecodeHelloOkBody(std::string_view body);

Result<std::string> DecodeStatementBody(std::string_view body);
Result<api::StatementOutcome> DecodeResultBody(std::string_view body);

/// Server-side latency breakdown a kResultSeq frame may carry as a
/// trailing footer — the server measured where the statement's time
/// went, the client gets to see it without a second round-trip.
/// write-stall is intentionally absent: the server only knows it after
/// the response (including this footer) has left the socket.
struct ServerTiming {
  bool present = false;
  uint64_t queue_wait_us = 0;  // frame decode -> worker pickup
  uint64_t execute_us = 0;     // worker execute window
};

/// Footer layout, appended after a kResultSeq result body:
///
///   [u8 0xF7 marker][u8 n_fields][n_fields * (string name, u64 value)]
///
/// Self-describing so fields are append-only: a decoder skips names it
/// does not know, and a v1 client that never asks for timing still
/// decodes the body via the strict overload's prefix. Only kResultSeq
/// carries it — plain kResult keeps its exact-length contract, which is
/// the corruption tripwire for classic one-shot clients.
constexpr uint8_t kServerTimingMarker = 0xF7;

std::string EncodeServerTimingFooter(const ServerTiming& timing);

/// Result frames in one pass: the rows are encoded straight into the
/// frame buffer (reserved from the row count after the first rows), the
/// header's length and CRC are patched in at the end. The bytes equal
/// EncodeFrame(kResult, EncodeResultBody(outcome)) and
/// EncodeFrame(kResultSeq, EncodeResultSeqBody(seq, outcome) +
/// EncodeServerTimingFooter(timing)) respectively.
std::string EncodeResultFrame(const api::StatementOutcome& outcome);
std::string EncodeResultSeqFrame(uint64_t seq,
                                 const api::StatementOutcome& outcome,
                                 const ServerTiming& timing);

/// Timing-aware overload: decodes the result body and, when a
/// well-formed timing footer trails it, fills *timing (present = true).
/// Trailing bytes that are not a timing footer are still an error.
Result<api::StatementOutcome> DecodeResultBody(std::string_view body,
                                               ServerTiming* timing);

struct StatementSeqBody {
  uint64_t seq = 0;
  std::string statement;
};
Result<StatementSeqBody> DecodeStatementSeqBody(std::string_view body);
/// Splits a seq-tagged server body (kResultSeq / kErrorSeq) into the
/// tag and the untagged remainder, decodable by the plain decoders.
/// *rest views `body`'s bytes; the std::string overload copies them.
Result<uint64_t> DecodeSeqPrefix(std::string_view body, std::string_view* rest);
Result<uint64_t> DecodeSeqPrefix(std::string_view body, std::string* rest);
/// Decodes the Status a kError frame transports into *out (its code
/// round-trips through StatusCodeToWire/FromWire). The return value
/// reports decode failures — a truncated or garbled error body.
Status DecodeErrorBody(std::string_view body, Status* out);

/// Incremental frame decoder for non-blocking sockets: the reactor
/// feeds whatever bytes recv() produced and pulls out as many complete
/// frames as those bytes contain. Tolerates frames torn across any
/// number of reads; byte-level garbage (bad CRC, oversized or empty
/// payload) is unrecoverable because framing is lost — the connection
/// must be closed.
class FrameDecoder {
 public:
  /// Appends raw socket bytes to the internal buffer.
  void Feed(const char* data, size_t size);

  /// Extracts the next complete frame. Returns true and fills *type and
  /// *body when a frame was decoded, false when more bytes are needed; an
  /// error Status (kIOError) means the stream is garbled beyond recovery.
  /// *body views the internal buffer and stays valid until the next Feed().
  Result<bool> Next(FrameType* type, std::string_view* body);
  /// As above, copying the body into *out.
  Result<bool> Next(Frame* out);

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix, compacted lazily
};

/// A connected socket speaking the frame protocol — the single I/O path
/// shared by the server's sessions and the client driver. Owns the fd
/// and closes it on destruction.
class FrameSocket {
 public:
  explicit FrameSocket(int fd) : fd_(fd) {}
  ~FrameSocket();

  FrameSocket(const FrameSocket&) = delete;
  FrameSocket& operator=(const FrameSocket&) = delete;

  int fd() const { return fd_; }

  /// Writes one complete frame (retrying short writes). SIGPIPE is
  /// suppressed; a peer that vanished surfaces as Status::IOError.
  Status Send(FrameType type, const std::string& body);

  /// Reads one complete frame, its body straight into Frame::body.
  /// `timeout_ms` bounds the whole read (poll-based); negative blocks
  /// forever. Error taxonomy:
  ///   kUnavailable       orderly EOF at a frame boundary (peer closed)
  ///   kDeadlineExceeded  nothing (or only part of a frame) arrived in time
  ///   kIOError           torn frame, CRC mismatch, oversized length,
  ///                      empty payload, or a socket error
  Result<Frame> Recv(int timeout_ms);

  /// Shuts down the read side, unblocking a concurrent Recv with EOF.
  /// Used by graceful shutdown to drain sessions.
  void ShutdownRead();

 private:
  int fd_;
};

}  // namespace server
}  // namespace erbium

#endif  // ERBIUM_SERVER_PROTOCOL_H_
