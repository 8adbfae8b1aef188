// Wire-protocol tests: status-code wire round-trips, body encoders and
// decoders, FrameSocket framing over a socketpair, and a fuzz suite that
// throws malformed bytes (bad CRC, oversized lengths, truncated frames,
// garbage) at a live server and asserts it answers with a typed error
// frame or a clean close — and never crashes.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>

#include "durability/serde.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace erbium {
namespace server {
namespace {

// ---- Status codes over the wire -------------------------------------------

TEST(StatusWireTest, EveryCodeRoundTrips) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kConstraintViolation, StatusCode::kParseError,
      StatusCode::kAnalysisError, StatusCode::kNotImplemented,
      StatusCode::kInternal,     StatusCode::kIOError,
      StatusCode::kDeadlineExceeded, StatusCode::kUnavailable,
  };
  for (StatusCode code : codes) {
    EXPECT_EQ(StatusCodeFromWire(StatusCodeToWire(code)), code)
        << StatusCodeToString(code);
  }
}

TEST(StatusWireTest, NumbersAreStable) {
  // These values are on the wire and on disk; a renumbering is a
  // protocol break. Pin them.
  EXPECT_EQ(StatusCodeToWire(StatusCode::kOk), 0);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kInvalidArgument), 1);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kNotFound), 2);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kAlreadyExists), 3);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kConstraintViolation), 4);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kParseError), 5);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kAnalysisError), 6);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kNotImplemented), 7);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kInternal), 8);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kIOError), 9);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kDeadlineExceeded), 10);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kUnavailable), 11);
}

TEST(StatusWireTest, UnknownNumbersDecodeAsInternal) {
  EXPECT_EQ(StatusCodeFromWire(99), StatusCode::kInternal);
  EXPECT_EQ(StatusCodeFromWire(-5), StatusCode::kInternal);
}

TEST(StatusWireTest, ErrorBodyRoundTripsEveryCodeAndMessage) {
  for (int32_t wire = 0; wire <= 11; ++wire) {
    Status original(StatusCodeFromWire(wire),
                    "message for code " + std::to_string(wire));
    Status decoded;
    ASSERT_TRUE(DecodeErrorBody(EncodeErrorBody(original), &decoded).ok());
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
  }
}

// ---- Body round-trips -----------------------------------------------------

TEST(ProtocolBodyTest, HelloRoundTrips) {
  auto hello = DecodeHelloBody(EncodeHelloBody("tester"));
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->version, kProtocolVersion);
  EXPECT_EQ(hello->client_name, "tester");
}

TEST(ProtocolBodyTest, HelloOkRoundTrips) {
  auto hello = DecodeHelloOkBody(EncodeHelloOkBody(42, "ErbiumDB"));
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->session_id, 42u);
  EXPECT_EQ(hello->banner, "ErbiumDB");
}

TEST(ProtocolBodyTest, StatementRoundTrips) {
  auto statement =
      DecodeStatementBody(EncodeStatementBody("SELECT r_id FROM R"));
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(*statement, "SELECT r_id FROM R");
}

TEST(ProtocolBodyTest, ResultRoundTripsAllValueKinds) {
  api::StatementOutcome outcome;
  outcome.shape = api::OutputShape::kTable;
  outcome.message = "unused for tables";
  outcome.result.columns = {"i", "f", "s", "b", "n", "arr"};
  outcome.result.rows.push_back(
      {Value::Int64(-7), Value::Float64(2.5), Value::String("hi"),
       Value::Bool(true), Value::Null(),
       Value::Array({Value::Int64(1), Value::Int64(2)})});
  outcome.result.rows.push_back(
      {Value::Int64(8), Value::Float64(-0.25), Value::String(""),
       Value::Bool(false), Value::Null(), Value::Array({})});

  auto decoded = DecodeResultBody(EncodeResultBody(outcome));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shape, api::OutputShape::kTable);
  ASSERT_EQ(decoded->result.columns, outcome.result.columns);
  ASSERT_EQ(decoded->result.rows.size(), 2u);
  EXPECT_EQ(decoded->result.rows[0][0].as_int64(), -7);
  EXPECT_EQ(decoded->result.rows[0][2].as_string(), "hi");
  EXPECT_EQ(decoded->result.rows[0][5].array().size(), 2u);
  EXPECT_EQ(decoded->result.rows[1][3].as_bool(), false);
}

TEST(ProtocolBodyTest, StatementSeqRoundTrips) {
  auto decoded = DecodeStatementSeqBody(
      EncodeStatementSeqBody(7, "SELECT r_id FROM R"));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->seq, 7u);
  EXPECT_EQ(decoded->statement, "SELECT r_id FROM R");
}

TEST(ProtocolBodyTest, ResultSeqRoundTrips) {
  api::StatementOutcome outcome;
  outcome.shape = api::OutputShape::kTable;
  outcome.result.columns = {"a"};
  outcome.result.rows.push_back({Value::Int64(3)});
  std::string body = EncodeResultSeqBody(99, outcome);
  std::string rest;
  auto seq = DecodeSeqPrefix(body, &rest);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 99u);
  auto decoded = DecodeResultBody(rest);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->result.rows.size(), 1u);
  EXPECT_EQ(decoded->result.rows[0][0].as_int64(), 3);
}

TEST(ProtocolBodyTest, ServerTimingFooterRoundTrips) {
  api::StatementOutcome outcome;
  outcome.shape = api::OutputShape::kTable;
  outcome.result.columns = {"a"};
  outcome.result.rows.push_back({Value::Int64(3)});

  ServerTiming timing;
  timing.present = true;
  timing.queue_wait_us = 1'234;
  timing.execute_us = 98'765;
  std::string body = EncodeResultBody(outcome) + EncodeServerTimingFooter(timing);

  ServerTiming decoded_timing;
  auto decoded = DecodeResultBody(body, &decoded_timing);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->result.rows.size(), 1u);
  EXPECT_EQ(decoded->result.rows[0][0].as_int64(), 3);
  EXPECT_TRUE(decoded_timing.present);
  EXPECT_EQ(decoded_timing.queue_wait_us, 1'234u);
  EXPECT_EQ(decoded_timing.execute_us, 98'765u);
}

TEST(ProtocolBodyTest, FooterIsAbsentOnPlainBodies) {
  // A body without a footer decodes with timing untouched — that is how
  // the client stays compatible with footer-less (older) servers.
  api::StatementOutcome outcome;
  outcome.shape = api::OutputShape::kMessage;
  outcome.message = "ok";
  ServerTiming timing;
  auto decoded = DecodeResultBody(EncodeResultBody(outcome), &timing);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(timing.present);
}

TEST(ProtocolBodyTest, StrictDecodeRejectsFooteredBody) {
  // The footer rides only on seq-tagged responses; the plain kResult
  // path keeps its trailing-bytes strictness.
  api::StatementOutcome outcome;
  outcome.shape = api::OutputShape::kMessage;
  outcome.message = "ok";
  ServerTiming timing;
  timing.present = true;
  timing.queue_wait_us = 1;
  timing.execute_us = 2;
  std::string body = EncodeResultBody(outcome) + EncodeServerTimingFooter(timing);
  auto decoded = DecodeResultBody(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
}

TEST(ProtocolBodyTest, TruncatedFooterFailsCleanly) {
  api::StatementOutcome outcome;
  outcome.shape = api::OutputShape::kMessage;
  outcome.message = "ok";
  ServerTiming timing;
  timing.present = true;
  timing.queue_wait_us = 7;
  timing.execute_us = 8;
  std::string plain = EncodeResultBody(outcome);
  std::string footer = EncodeServerTimingFooter(timing);
  for (size_t cut = 1; cut < footer.size(); ++cut) {
    ServerTiming out;
    auto decoded = DecodeResultBody(plain + footer.substr(0, cut), &out);
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(ProtocolBodyTest, ErrorSeqRoundTrips) {
  std::string body =
      EncodeErrorSeqBody(12, Status::NotFound("no such attribute"));
  std::string rest;
  auto seq = DecodeSeqPrefix(body, &rest);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 12u);
  Status transported;
  ASSERT_TRUE(DecodeErrorBody(rest, &transported).ok());
  EXPECT_EQ(transported.code(), StatusCode::kNotFound);
  EXPECT_EQ(transported.message(), "no such attribute");
}

TEST(ProtocolBodyTest, SeqPrefixOnShortBodyFails) {
  std::string rest;
  EXPECT_FALSE(DecodeSeqPrefix("1234567", &rest).ok());
}

TEST(ProtocolBodyTest, TruncatedBodiesFailCleanly) {
  api::StatementOutcome outcome;
  outcome.shape = api::OutputShape::kTable;
  outcome.result.columns = {"a"};
  outcome.result.rows.push_back({Value::Int64(1)});
  std::string body = EncodeResultBody(outcome);
  for (size_t cut = 0; cut < body.size(); ++cut) {
    auto decoded = DecodeResultBody(body.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
  EXPECT_FALSE(DecodeHelloBody("xy").ok());
  Status out;
  EXPECT_FALSE(DecodeErrorBody("z", &out).ok());
}

TEST(ProtocolBodyTest, ResultWithLyingCountsFailsCleanly) {
  // A count field larger than the remaining bytes must be rejected, not
  // trusted into a huge allocation.
  std::string body;
  body.push_back(static_cast<char>(api::OutputShape::kTable));
  body += std::string(4, '\0');                  // empty message
  body += std::string("\xff\xff\xff\x7f", 4);    // 2^31-ish column count
  auto decoded = DecodeResultBody(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
}

// ---- Golden bytes: the result frame format is pinned ---------------------

std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  return hex;
}

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return bytes;
}

/// Every value kind, -0.0, a string with an embedded NUL, a nested array
/// and structs.
api::StatementOutcome GoldenOutcome() {
  api::StatementOutcome outcome;
  outcome.shape = api::OutputShape::kTable;
  outcome.message = "ok";
  outcome.result.columns = {"n", "b", "i", "f", "s", "arr", "st"};
  outcome.result.rows.push_back(
      {Value::Null(), Value::Bool(true), Value::Int64(-42),
       Value::Float64(-0.0), Value::String(std::string("a\0b", 3)),
       Value::Array({Value::Int64(1),
                     Value::Array({Value::String("x"), Value::Null()})}),
       Value::Struct({{"k", Value::Int64(7)},
                      {"v", Value::Array({Value::Bool(false)})}})});
  outcome.result.rows.push_back(
      {Value::Null(), Value::Bool(false),
       Value::Int64(std::numeric_limits<int64_t>::min()), Value::Float64(2.5),
       Value::String(""), Value::Array({}), Value::Struct({})});
  return outcome;
}

ServerTiming GoldenTiming() {
  ServerTiming timing;
  timing.present = true;
  timing.queue_wait_us = 3;
  timing.execute_us = 1234;
  return timing;
}

constexpr uint64_t kGoldenSeq = 0x0102030405060708ull;

const std::string kGoldenResultFrame =
    "b800000054b98cef8201020000006f6b07000000010000006e01000000620100"
    "0000690100000066010000007303000000617272020000007374020000000700"
    "000000010102d6ffffffffffffff030000000000000080040300000061006205"
    "0200000002010000000000000005020000000401000000780006020000000100"
    "00006b0207000000000000000100000076050100000001000700000000010002"
    "0000000000000080030000000000000440040000000005000000000600000000";

const std::string kGoldenResultSeqFrame =
    "f1000000aaf767e985080706050403020101020000006f6b0700000001000000"
    "6e01000000620100000069010000006601000000730300000061727202000000"
    "7374020000000700000000010102d6ffffffffffffff03000000000000008004"
    "0300000061006205020000000201000000000000000502000000040100000078"
    "000602000000010000006b020700000000000000010000007605010000000100"
    "0700000000010002000000000000008003000000000000044004000000000500"
    "0000000600000000f7020d00000071756575655f776169745f75730300000000"
    "0000000a000000657865637574655f7573d204000000000000";

TEST(GoldenFrameTest, ResultFrameBytesArePinned) {
  EXPECT_EQ(ToHex(EncodeResultFrame(GoldenOutcome())), kGoldenResultFrame);
  EXPECT_EQ(ToHex(EncodeFrame(FrameType::kResult,
                              EncodeResultBody(GoldenOutcome()))),
            kGoldenResultFrame);
}

TEST(GoldenFrameTest, ResultSeqFrameBytesArePinned) {
  EXPECT_EQ(ToHex(EncodeResultSeqFrame(kGoldenSeq, GoldenOutcome(),
                                       GoldenTiming())),
            kGoldenResultSeqFrame);
  EXPECT_EQ(ToHex(EncodeFrame(FrameType::kResultSeq,
                              EncodeResultSeqBody(kGoldenSeq, GoldenOutcome()) +
                                  EncodeServerTimingFooter(GoldenTiming()))),
            kGoldenResultSeqFrame);
}

TEST(GoldenFrameTest, LargeResultFrameRoundTripsAndMatchesTheTwoStepEncoding) {
  // Past the rows the encoder samples before it reserves the rest, with
  // rows whose size varies so the reservation runs short and long.
  api::StatementOutcome outcome;
  outcome.shape = api::OutputShape::kTable;
  outcome.result.columns = {"k", "xs"};
  for (int64_t i = 0; i < 500; ++i) {
    Value::ArrayData xs(static_cast<size_t>(i < 64 ? 1 : i % 17));
    for (Value& x : xs) x = Value::String(std::string(i % 5, 'z'));
    outcome.result.rows.push_back({Value::Int64(i), Value::Array(xs)});
  }
  const std::string frame = EncodeResultFrame(outcome);
  EXPECT_EQ(frame, EncodeFrame(FrameType::kResult, EncodeResultBody(outcome)));
  auto decoded = DecodeResultBody(std::string_view(frame).substr(9));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->result.ToCanonicalString(),
            outcome.result.ToCanonicalString());
  EXPECT_EQ(EncodeResultSeqFrame(9, outcome, GoldenTiming()),
            EncodeFrame(FrameType::kResultSeq,
                        EncodeResultSeqBody(9, outcome) +
                            EncodeServerTimingFooter(GoldenTiming())));
}

TEST(GoldenFrameTest, GoldenFramesDecodeToTheirOutcome) {
  const api::StatementOutcome want = GoldenOutcome();
  std::string plain = FromHex(kGoldenResultFrame).substr(9);
  auto decoded = DecodeResultBody(plain);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->message, "ok");
  EXPECT_EQ(decoded->result.columns, want.result.columns);
  EXPECT_EQ(decoded->result.ToCanonicalString(),
            want.result.ToCanonicalString());
  const Row& row = decoded->result.rows[0];
  EXPECT_TRUE(std::signbit(row[3].as_float64()));
  EXPECT_EQ(row[4].as_string(), std::string("a\0b", 3));

  std::string seq_body = FromHex(kGoldenResultSeqFrame).substr(9);
  std::string_view rest;
  auto seq = DecodeSeqPrefix(seq_body, &rest);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, kGoldenSeq);
  ServerTiming timing;
  auto tagged = DecodeResultBody(rest, &timing);
  ASSERT_TRUE(tagged.ok()) << tagged.status().ToString();
  EXPECT_EQ(tagged->result.ToCanonicalString(),
            want.result.ToCanonicalString());
  EXPECT_TRUE(timing.present);
  EXPECT_EQ(timing.queue_wait_us, 3u);
  EXPECT_EQ(timing.execute_us, 1234u);
}

TEST(GoldenFrameTest, EveryProperPrefixOfTheBodyFailsWithIOError) {
  const std::string plain = FromHex(kGoldenResultFrame).substr(9);
  for (size_t cut = 0; cut < plain.size(); ++cut) {
    auto decoded = DecodeResultBody(std::string_view(plain).substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError) << cut;
  }
  // The tagged body: a cut inside the rows or the footer fails too (a cut
  // exactly between them is a complete footer-less body).
  const std::string tagged = FromHex(kGoldenResultSeqFrame).substr(9 + 8);
  for (size_t cut = 0; cut < tagged.size(); ++cut) {
    if (cut == plain.size()) continue;
    ServerTiming timing;
    auto decoded =
        DecodeResultBody(std::string_view(tagged).substr(0, cut), &timing);
    ASSERT_FALSE(decoded.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError) << cut;
  }
}

// ---- FrameDecoder: incremental decoding for the reactor -------------------

TEST(FrameDecoderTest, DecodesAFrameFedByteByByte) {
  std::string wire = EncodeFrame(FrameType::kStatement,
                                 EncodeStatementBody("SELECT 1"));
  FrameDecoder decoder;
  Frame frame;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Feed(wire.data() + i, 1);
    auto has = decoder.Next(&frame);
    ASSERT_TRUE(has.ok());
    EXPECT_FALSE(*has) << "frame complete after only " << i + 1 << " bytes";
  }
  decoder.Feed(wire.data() + wire.size() - 1, 1);
  auto has = decoder.Next(&frame);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  EXPECT_EQ(frame.type, FrameType::kStatement);
  EXPECT_EQ(*DecodeStatementBody(frame.body), "SELECT 1");
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, PullsMultipleFramesFromOneFeed) {
  std::string wire;
  for (int i = 0; i < 5; ++i) {
    wire += EncodeFrame(FrameType::kStatementSeq,
                        EncodeStatementSeqBody(static_cast<uint64_t>(i),
                                               "SELECT " + std::to_string(i)));
  }
  wire += EncodeFrame(FrameType::kPing, "");
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  for (int i = 0; i < 5; ++i) {
    Frame frame;
    auto has = decoder.Next(&frame);
    ASSERT_TRUE(has.ok());
    ASSERT_TRUE(*has);
    ASSERT_EQ(frame.type, FrameType::kStatementSeq);
    auto body = DecodeStatementSeqBody(frame.body);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(body->seq, static_cast<uint64_t>(i));
  }
  Frame frame;
  ASSERT_TRUE(*decoder.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_FALSE(*decoder.Next(&frame));
}

TEST(FrameDecoderTest, TornThenCompletedAcrossFeeds) {
  std::string wire = EncodeFrame(FrameType::kGoodbye, "") +
                     EncodeFrame(FrameType::kPing, "");
  FrameDecoder decoder;
  size_t cut = wire.size() / 2 + 3;
  decoder.Feed(wire.data(), cut);
  Frame frame;
  ASSERT_TRUE(*decoder.Next(&frame));  // first frame fits in the cut
  EXPECT_EQ(frame.type, FrameType::kGoodbye);
  EXPECT_FALSE(*decoder.Next(&frame));
  decoder.Feed(wire.data() + cut, wire.size() - cut);
  ASSERT_TRUE(*decoder.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kPing);
}

TEST(FrameDecoderTest, BadCrcIsUnrecoverable) {
  std::string wire = EncodeFrame(FrameType::kPing, "");
  wire[wire.size() - 1] ^= 0x01;
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame frame;
  auto has = decoder.Next(&frame);
  ASSERT_FALSE(has.ok());
  EXPECT_EQ(has.status().code(), StatusCode::kIOError);
  EXPECT_NE(has.status().message().find("CRC"), std::string::npos);
}

TEST(FrameDecoderTest, OversizedAndEmptyPayloadsAreRejected) {
  {
    std::string header;
    durability::PutU32(kMaxFramePayloadBytes + 1, &header);
    durability::PutU32(0, &header);
    FrameDecoder decoder;
    decoder.Feed(header.data(), header.size());
    Frame frame;
    auto has = decoder.Next(&frame);
    ASSERT_FALSE(has.ok());
    EXPECT_EQ(has.status().code(), StatusCode::kIOError);
  }
  {
    std::string header(8, '\0');  // zero length, zero CRC
    FrameDecoder decoder;
    decoder.Feed(header.data(), header.size());
    Frame frame;
    auto has = decoder.Next(&frame);
    ASSERT_FALSE(has.ok());
    EXPECT_EQ(has.status().code(), StatusCode::kIOError);
  }
}

// ---- FrameSocket over a socketpair ----------------------------------------

class FramePairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a_ = std::make_unique<FrameSocket>(fds[0]);
    b_ = std::make_unique<FrameSocket>(fds[1]);
  }
  std::unique_ptr<FrameSocket> a_, b_;
};

TEST_F(FramePairTest, SendRecvRoundTrips) {
  ASSERT_TRUE(a_->Send(FrameType::kStatement,
                       EncodeStatementBody("SELECT 1")).ok());
  auto frame = b_->Recv(1000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kStatement);
  auto statement = DecodeStatementBody(frame->body);
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(*statement, "SELECT 1");
}

TEST_F(FramePairTest, RecvReadsAGoldenFrameInPlace) {
  // Raw golden bytes, sent in two pieces that split the type tag from the
  // body: Recv must reassemble them and check the CRC over both.
  const std::string wire = FromHex(kGoldenResultSeqFrame);
  ASSERT_EQ(::send(a_->fd(), wire.data(), 10, MSG_NOSIGNAL), 10);
  ASSERT_EQ(::send(a_->fd(), wire.data() + 10, wire.size() - 10, MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size() - 10));
  auto frame = b_->Recv(1000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kResultSeq);
  EXPECT_EQ(frame->body, wire.substr(9));
}

TEST_F(FramePairTest, RecvTimesOutWhenIdle) {
  auto frame = b_->Recv(50);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FramePairTest, OrderlyCloseIsUnavailable) {
  a_.reset();  // closes the peer fd
  auto frame = b_->Recv(1000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST_F(FramePairTest, TornFrameIsIOError) {
  std::string wire = EncodeFrame(FrameType::kPing, "");
  ASSERT_GT(wire.size(), 4u);
  // Send only part of the frame, then close.
  ASSERT_EQ(::send(a_->fd(), wire.data(), 5, MSG_NOSIGNAL), 5);
  a_.reset();
  auto frame = b_->Recv(1000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIOError);
}

TEST_F(FramePairTest, CorruptCrcIsIOError) {
  std::string wire = EncodeFrame(FrameType::kPing, "");
  wire[wire.size() - 1] ^= 0x01;  // flip a payload bit; CRC now lies
  ASSERT_EQ(::send(a_->fd(), wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  auto frame = b_->Recv(1000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIOError);
  EXPECT_NE(frame.status().message().find("CRC"), std::string::npos);
}

TEST_F(FramePairTest, OversizedLengthIsRejectedBeforeBuffering) {
  std::string header;
  durability::PutU32(kMaxFramePayloadBytes + 1, &header);
  durability::PutU32(0xdeadbeef, &header);
  ASSERT_EQ(::send(a_->fd(), header.data(), header.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(header.size()));
  auto frame = b_->Recv(1000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIOError);
  EXPECT_NE(frame.status().message().find("exceeds"), std::string::npos);
}

TEST_F(FramePairTest, EmptyPayloadIsRejected) {
  std::string header;
  durability::PutU32(0, &header);
  durability::PutU32(0, &header);
  ASSERT_EQ(::send(a_->fd(), header.data(), header.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(header.size()));
  auto frame = b_->Recv(1000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIOError);
}

// ---- Fuzzing a live server ------------------------------------------------

class ServerFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.port = 0;
    options.idle_timeout_ms = 500;
    auto server = Server::Start(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  /// Opens a raw TCP connection to the server under test.
  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  /// Writes `bytes`, then asserts the server either answers a valid
  /// kError frame or closes cleanly — never hangs past the timeout,
  /// never crashes (the post-fuzz sanity check proves liveness).
  void ExpectErrorFrameOrClose(const std::string& bytes) {
    FrameSocket sock(RawConnect());
    if (!bytes.empty()) {
      ASSERT_EQ(::send(sock.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(bytes.size()));
    }
    ::shutdown(sock.fd(), SHUT_WR);
    // Drain until close; every decodable frame on the way out must be a
    // well-formed kError.
    for (int i = 0; i < 8; ++i) {
      auto frame = sock.Recv(5000);
      if (!frame.ok()) {
        EXPECT_NE(frame.status().code(), StatusCode::kDeadlineExceeded)
            << "server went silent instead of answering or closing";
        return;  // closed — fine
      }
      EXPECT_EQ(frame->type, FrameType::kError);
      Status transported;
      EXPECT_TRUE(DecodeErrorBody(frame->body, &transported).ok());
      EXPECT_FALSE(transported.ok());
    }
    FAIL() << "server kept streaming frames at a fuzzer";
  }

  /// The server must still serve a well-behaved client.
  void ExpectServerAlive() {
    Client::Options options;
    options.port = server_->port();
    options.name = "liveness";
    auto client = Client::Connect(options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    EXPECT_TRUE((*client)->Ping().ok());
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServerFuzzTest, GarbageBytesGetErrorFrameOrClose) {
  std::mt19937 rng(20260806);
  for (int round = 0; round < 8; ++round) {
    std::string garbage(64 + round * 37, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng() & 0xff);
    }
    ExpectErrorFrameOrClose(garbage);
  }
  ExpectServerAlive();
}

TEST_F(ServerFuzzTest, OversizedLengthPrefix) {
  std::string bytes;
  durability::PutU32(0xffffffffu, &bytes);
  durability::PutU32(0, &bytes);
  bytes += "trailing";
  ExpectErrorFrameOrClose(bytes);
  ExpectServerAlive();
}

TEST_F(ServerFuzzTest, TruncatedFrame) {
  std::string wire = EncodeFrame(FrameType::kHello, EncodeHelloBody("x"));
  ExpectErrorFrameOrClose(wire.substr(0, wire.size() / 2));
  ExpectServerAlive();
}

TEST_F(ServerFuzzTest, BadCrcFrame) {
  std::string wire = EncodeFrame(FrameType::kHello, EncodeHelloBody("x"));
  wire[wire.size() - 1] ^= 0x40;
  ExpectErrorFrameOrClose(wire);
  ExpectServerAlive();
}

TEST_F(ServerFuzzTest, ValidFrameOfWrongTypeBeforeHandshake) {
  ExpectErrorFrameOrClose(
      EncodeFrame(FrameType::kStatement, EncodeStatementBody("SELECT 1")));
  ExpectServerAlive();
}

TEST_F(ServerFuzzTest, EmptyPayloadFrame) {
  std::string bytes;
  durability::PutU32(0, &bytes);
  durability::PutU32(0, &bytes);
  ExpectErrorFrameOrClose(bytes);
  ExpectServerAlive();
}

TEST_F(ServerFuzzTest, ImmediateClose) {
  ExpectErrorFrameOrClose("");
  ExpectServerAlive();
}

TEST_F(ServerFuzzTest, TruncatedFramesAtEveryPrefixLength) {
  std::string wire = EncodeFrame(FrameType::kHello, EncodeHelloBody("fz"));
  for (size_t cut = 1; cut < wire.size(); cut += 3) {
    ExpectErrorFrameOrClose(wire.substr(0, cut));
  }
  ExpectServerAlive();
}

}  // namespace
}  // namespace server
}  // namespace erbium
