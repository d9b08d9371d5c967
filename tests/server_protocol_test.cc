// Wire-protocol robustness: every way a byte stream can be malformed —
// truncated frames, oversized length prefixes, bit-flipped headers,
// mid-frame disconnects, slow-loris partial writes — must produce a
// Status naming the exact stream byte offset, and the server must answer
// or close cleanly: never crash, never hang, never leak a session.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/coalescer.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tests/test_util.h"

namespace cqc {
namespace serve {
namespace {

using ::cqc::testing::AddRelation;

WireRequest PingRequest(uint64_t id) {
  WireRequest req;
  req.request_id = id;
  req.view = "Q^bf(x,y) = R(x,y)";
  req.body = "";
  req.deadline_ms = 10'000;
  return req;
}

// ---------------------------------------------------------------------------
// FrameReader: incremental assembly over arbitrary chunkings.
// ---------------------------------------------------------------------------

TEST(FrameReader, ByteAtATimeAssembly) {
  const std::string frame = EncodeRequestFrame(PingRequest(7));
  FrameReader reader;
  std::string_view payload;
  uint64_t offset = 0;
  for (size_t i = 0; i < frame.size(); ++i) {
    // Before the last byte arrives the reader must keep asking for more.
    ASSERT_EQ(reader.Poll(&payload, &offset), FrameReader::Next::kNeedMore)
        << "after " << i << " byte(s)";
    reader.Feed(frame.data() + i, 1);
  }
  ASSERT_EQ(reader.Poll(&payload, &offset), FrameReader::Next::kFrame);
  EXPECT_EQ(offset, 4u);  // payload starts after the length prefix
  WireRequest decoded;
  ASSERT_TRUE(DecodeRequestPayload(payload, offset, &decoded).ok());
  EXPECT_EQ(decoded.request_id, 7u);
  EXPECT_EQ(reader.Poll(&payload, &offset), FrameReader::Next::kNeedMore);
}

TEST(FrameReader, TruncationAtEveryPrefixIsJustNeedMore) {
  // No prefix of a valid frame may crash or be misread as an error: a
  // partial frame is always "wait for more bytes".
  const std::string frame = EncodeRequestFrame(PingRequest(1));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    FrameReader reader;
    reader.Feed(frame.data(), cut);
    std::string_view payload;
    uint64_t offset = 0;
    EXPECT_EQ(reader.Poll(&payload, &offset), FrameReader::Next::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(reader.mid_frame(), cut > 0) << "cut at " << cut;
  }
}

TEST(FrameReader, MultipleFramesInOneFeed) {
  std::string stream;
  for (uint64_t id = 1; id <= 3; ++id)
    stream += EncodeRequestFrame(PingRequest(id));
  FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  std::string_view payload;
  uint64_t offset = 0;
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(reader.Poll(&payload, &offset), FrameReader::Next::kFrame);
    WireRequest decoded;
    ASSERT_TRUE(DecodeRequestPayload(payload, offset, &decoded).ok());
    EXPECT_EQ(decoded.request_id, id);
  }
  EXPECT_EQ(reader.Poll(&payload, &offset), FrameReader::Next::kNeedMore);
  EXPECT_EQ(reader.consumed(), stream.size());
}

TEST(FrameReader, OversizedLengthPrefixFailsAtItsOffset) {
  // A huge length prefix must be an error at the prefix, not a 4GB
  // allocation waiting for bytes that never come.
  FrameReader reader(/*max_payload=*/1024);
  std::string prefix;
  AppendU32(&prefix, 4096);
  reader.Feed(prefix.data(), prefix.size());
  std::string_view payload;
  uint64_t offset = 0;
  ASSERT_EQ(reader.Poll(&payload, &offset), FrameReader::Next::kError);
  EXPECT_EQ(reader.error_offset(), 0u);
  EXPECT_NE(reader.error().message().find("payload cap"), std::string::npos);
  // Errors are sticky: feeding more does not resurrect the stream.
  reader.Feed("abcd", 4);
  EXPECT_EQ(reader.Poll(&payload, &offset), FrameReader::Next::kError);
}

TEST(FrameReader, UndersizedLengthPrefixFailsAtItsOffset) {
  // After one valid frame, so the error offset is mid-stream, not zero.
  const std::string good = EncodeRequestFrame(PingRequest(1));
  FrameReader reader;
  reader.Feed(good.data(), good.size());
  std::string tiny;
  AppendU32(&tiny, 1);  // below the magic+type minimum
  tiny.push_back('x');
  reader.Feed(tiny.data(), tiny.size());
  std::string_view payload;
  uint64_t offset = 0;
  ASSERT_EQ(reader.Poll(&payload, &offset), FrameReader::Next::kFrame);
  ASSERT_EQ(reader.Poll(&payload, &offset), FrameReader::Next::kError);
  EXPECT_EQ(reader.error_offset(), good.size());
}

TEST(FrameReader, MidStreamEofNamesTheOffset) {
  const std::string frame = EncodeRequestFrame(PingRequest(1));
  FrameReader reader;
  reader.Feed(frame.data(), frame.size());
  reader.Feed(frame.data(), 5);  // half a header of the next frame
  std::string_view payload;
  uint64_t offset = 0;
  ASSERT_EQ(reader.Poll(&payload, &offset), FrameReader::Next::kFrame);
  ASSERT_TRUE(reader.mid_frame());
  const Status eof = reader.MidStreamEof();
  EXPECT_FALSE(eof.ok());
  EXPECT_NE(eof.message().find(std::to_string(frame.size())),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Payload decoding: the bit-flip and length-lie corpus.
// ---------------------------------------------------------------------------

std::string_view PayloadOf(const std::string& frame) {
  return std::string_view(frame).substr(4);
}

TEST(DecodeRequest, BitFlippedHeaderBytesAreAddressedErrors) {
  WireRequest req = PingRequest(9);
  req.tenant = "t";
  req.body = "? 1";
  const std::string frame = EncodeRequestFrame(req);
  // Flipping the magic, type, or reserved byte must each fail with the
  // absolute stream offset of the flipped byte.
  const struct {
    size_t payload_byte;
    const char* what;
  } kCases[] = {{0, "magic"}, {1, "type"}, {3, "reserved"}};
  for (const auto& c : kCases) {
    std::string bad(frame);
    bad[4 + c.payload_byte] ^= 0x40;
    WireRequest out;
    uint64_t err_off = 0;
    Status s = DecodeRequestPayload(PayloadOf(bad), 4, &out, &err_off);
    ASSERT_FALSE(s.ok()) << c.what;
    EXPECT_EQ(err_off, 4 + c.payload_byte) << c.what;
    EXPECT_NE(s.message().find("wire offset"), std::string::npos) << c.what;
  }
}

TEST(DecodeRequest, LengthFieldsMustSumToThePayload) {
  WireRequest req = PingRequest(3);
  req.tenant = "acme";
  req.body = "? 1 2";
  std::string frame = EncodeRequestFrame(req);
  // Inflate tenant_len (payload offset 16) past the payload's end.
  frame[4 + 16] = (char)0xFF;
  WireRequest out;
  uint64_t err_off = 0;
  Status s = DecodeRequestPayload(PayloadOf(frame), 4, &out, &err_off);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(err_off, 4u + 16u);
  EXPECT_NE(s.message().find("sum"), std::string::npos);
}

TEST(DecodeRequest, TruncatedFixedHeader) {
  for (size_t len = 0; len < kRequestFixedBytes; ++len) {
    std::string payload(len, '\0');
    if (len > 0) payload[0] = (char)kFrameMagic;
    if (len > 1) payload[1] = (char)kTypeRequest;
    WireRequest out;
    uint64_t err_off = 0;
    Status s = DecodeRequestPayload(payload, 4, &out, &err_off);
    ASSERT_FALSE(s.ok()) << len;
    EXPECT_EQ(err_off, 4 + len) << len;  // points one past the last byte
  }
}

TEST(DecodeResponse, RejectsRowsWithArityZeroAndUnknownCodes) {
  WireResponse resp;
  resp.request_id = 1;
  resp.arity = 1;
  resp.values = {42};
  std::string frame = EncodeResponseFrame(resp);
  {
    std::string bad(frame);
    bad[4 + 3] = 0;  // arity byte: now 1 row with arity 0
    WireResponse out;
    uint64_t err_off = 0;
    Status s = DecodeResponsePayload(PayloadOf(bad), 4, &out, &err_off);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(err_off, 4u + 16u);
  }
  {
    std::string bad(frame);
    bad[4 + 2] = (char)0x7F;  // status code byte
    WireResponse out;
    uint64_t err_off = 0;
    Status s = DecodeResponsePayload(PayloadOf(bad), 4, &out, &err_off);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(err_off, 4u + 2u);
  }
}

TEST(Protocol, ResponseRoundTripsExactly) {
  WireResponse resp;
  resp.code = StatusCode::kDeadlineExceeded;
  resp.arity = 3;
  resp.request_id = 0xDEADBEEFCAFEBABEull;
  resp.error_offset = 1234;
  resp.message = "deadline";
  resp.values = {1, 2, 3, 4, 5, 6};
  const std::string frame = EncodeResponseFrame(resp);
  WireResponse out;
  ASSERT_TRUE(DecodeResponsePayload(PayloadOf(frame), 4, &out).ok());
  EXPECT_EQ(out.code, resp.code);
  EXPECT_EQ(out.arity, resp.arity);
  EXPECT_EQ(out.request_id, resp.request_id);
  EXPECT_EQ(out.error_offset, resp.error_offset);
  EXPECT_EQ(out.message, resp.message);
  EXPECT_EQ(out.values, resp.values);
  EXPECT_EQ(out.num_rows(), 2u);

  // The split encoding the server sends (a head plus a separate values
  // section) is the same frame, byte for byte.
  EXPECT_EQ(EncodeResponseHead(resp, 2, 8 * resp.values.size()) +
                EncodeValuesBody(resp.values),
            frame);
  // A second input: one wide row of extreme values, and no message.
  WireResponse wide;
  wide.arity = 5;
  wide.request_id = 7;
  wide.values = {0, 1, 0x0102030405060708ull, ~0ull, 1ull << 63};
  std::string split = EncodeResponseHead(wide, 1, 8 * wide.values.size());
  AppendValues(&split, wide.values.data(), wide.values.size());
  EXPECT_EQ(split, EncodeResponseFrame(wide));
  ASSERT_TRUE(DecodeResponsePayload(PayloadOf(split), 4, &out).ok());
  EXPECT_EQ(out.values, wide.values);
  EXPECT_EQ(out.num_rows(), 1u);
}

// ---------------------------------------------------------------------------
// Live-socket corpus: the same attacks against a running server.
// ---------------------------------------------------------------------------

class ServerProtocolTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions opts = {}) {
    AddRelation(db_, "R", 2, {{1, 2}, {1, 3}, {2, 3}, {3, 1}});
    opts.port = 0;
    opts.worker_threads = 2;
    server_ = std::make_unique<CqcServer>(&db_, opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    ReadCoalescer::SetDrainHoldForTest(std::chrono::milliseconds(0));
  }

  /// Asserts the no-leak invariant: every session opened was closed and
  /// nothing but the listener + wake pipe is left open.
  void ExpectNoLeaks() {
    server_->Stop();
    const ServerStats st = server_->stats();
    EXPECT_EQ(st.active_sessions, 0u);
    EXPECT_EQ(st.open_fds, 0u);
    EXPECT_EQ(st.sessions_opened, st.sessions_closed);
  }

  Database db_;
  std::unique_ptr<CqcServer> server_;
};

TEST_F(ServerProtocolTest, SlowLorisByteAtATimeStillGetsAnswered) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  WireRequest req = PingRequest(42);
  req.body = "? 1";
  const std::string frame = EncodeRequestFrame(req);
  // One byte per send: the reader must assemble across arbitrarily many
  // reads, and the partial frame must not be swept while bytes still flow.
  for (char b : frame)
    ASSERT_TRUE(client.SendRaw(std::string_view(&b, 1)).ok());
  WireResponse resp;
  ASSERT_TRUE(client.ReadResponse(&resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.request_id, 42u);
  EXPECT_EQ(resp.arity, 1u);
  EXPECT_EQ(resp.num_rows(), 2u);  // R(1,2), R(1,3)
  client.Close();
  ExpectNoLeaks();
}

TEST_F(ServerProtocolTest, MidFrameDisconnectIsCountedAndClosed) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const std::string frame = EncodeRequestFrame(PingRequest(1));
  ASSERT_TRUE(client.SendRaw(std::string_view(frame).substr(0, 9)).ok());
  client.ShutdownWrite();
  // The server sees EOF mid-frame: a protocol error and a clean close.
  WireResponse resp;
  EXPECT_FALSE(client.ReadResponse(&resp).ok());  // no answer, just EOF
  client.Close();
  ExpectNoLeaks();
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(ServerProtocolTest, OversizedPrefixAnsweredWithOffsetThenClosed) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // One good frame, then a length prefix past the cap: the good frame is
  // answered, the bad prefix gets an error at ITS stream offset, and the
  // connection dies — there is no resync after a framing fault.
  const std::string good = EncodeRequestFrame(PingRequest(1));
  std::string bad;
  AppendU32(&bad, kMaxPayloadBytes + 1);
  ASSERT_TRUE(client.SendRaw(good + bad).ok());
  // The framing error is answered from the loop thread while the good
  // request runs on a worker, so the two responses race — but BOTH must
  // arrive before the close.
  bool saw_ok = false, saw_error = false;
  for (int i = 0; i < 2; ++i) {
    WireResponse resp;
    ASSERT_TRUE(client.ReadResponse(&resp).ok());
    if (resp.code == StatusCode::kOk) {
      EXPECT_EQ(resp.request_id, 1u);
      saw_ok = true;
    } else {
      EXPECT_EQ(resp.code, StatusCode::kError);
      EXPECT_EQ(resp.error_offset, good.size());
      EXPECT_NE(resp.message.find("payload cap"), std::string::npos);
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_error);
  WireResponse resp;
  EXPECT_FALSE(client.ReadResponse(&resp).ok());  // EOF: server closed
  client.Close();
  ExpectNoLeaks();
}

TEST_F(ServerProtocolTest, BitFlippedMagicOverTheWire) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  std::string frame = EncodeRequestFrame(PingRequest(5));
  frame[4] ^= 0x01;  // corrupt the magic byte
  ASSERT_TRUE(client.SendRaw(frame).ok());
  WireResponse resp;
  ASSERT_TRUE(client.ReadResponse(&resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kError);
  EXPECT_EQ(resp.error_offset, 4u);
  EXPECT_NE(resp.message.find("magic"), std::string::npos);
  client.Close();
  ExpectNoLeaks();
}

TEST_F(ServerProtocolTest, ScriptParseErrorIsWireAddressedAndRecoverable) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  WireRequest req = PingRequest(1);
  req.tenant = "acme";
  req.body = "? 1 junk";
  WireResponse resp;
  ASSERT_TRUE(client.Call(req, &resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kError);
  // The offset names the first byte of "junk" in the STREAM: length
  // prefix + fixed header + tenant + view + the token's line offset.
  const uint32_t expect = (uint32_t)(4 + kRequestFixedBytes +
                                     req.tenant.size() + req.view.size() +
                                     req.body.find("junk"));
  EXPECT_EQ(resp.error_offset, expect);
  // A request-level error is NOT a framing error: the session survives.
  req.request_id = 2;
  req.body = "? 1";
  ASSERT_TRUE(client.Call(req, &resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kOk);
  client.Close();
  ExpectNoLeaks();
}

TEST_F(ServerProtocolTest, StalePartialFrameIsSweptOut) {
  ServerOptions opts;
  opts.partial_frame_timeout = std::chrono::milliseconds(200);
  StartServer(opts);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const std::string frame = EncodeRequestFrame(PingRequest(1));
  ASSERT_TRUE(client.SendRaw(std::string_view(frame).substr(0, 6)).ok());
  // A half-sent frame left hanging past the timeout is a dead or hostile
  // peer; the sweep must reclaim the session without a request ever
  // completing.
  WireResponse resp;
  EXPECT_FALSE(client.ReadResponse(&resp).ok());  // server closes on us
  client.Close();
  ExpectNoLeaks();
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(ServerProtocolTest, SessionCapRefusesTheOverflowConnection) {
  ServerOptions opts;
  opts.max_sessions = 2;
  StartServer(opts);
  Client a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", server_->port()).ok());
  WireResponse resp;
  // Prove both sessions are live before the cap kicks in.
  ASSERT_TRUE(a.Call(PingRequest(1), &resp).ok());
  ASSERT_TRUE(b.Call(PingRequest(2), &resp).ok());
  Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  Status got = c.ReadResponse(&resp);
  // The refusal frame is best-effort; the close is guaranteed.
  if (got.ok()) {
    EXPECT_EQ(resp.code, StatusCode::kUnavailable);
    EXPECT_NE(resp.message.find("capacity"), std::string::npos);
  }
  EXPECT_GE(server_->stats().sessions_refused, 1u);
  a.Close();
  b.Close();
  c.Close();
  ExpectNoLeaks();
}

TEST_F(ServerProtocolTest, PipelinedRequestsAllAnswerInOrder) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Many frames in one write; responses must come back one per request.
  std::string burst;
  constexpr uint64_t kN = 32;
  for (uint64_t id = 1; id <= kN; ++id) {
    WireRequest req = PingRequest(id);
    req.body = "? 1";
    burst += EncodeRequestFrame(req);
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());
  uint64_t seen = 0;
  for (uint64_t i = 0; i < kN; ++i) {
    WireResponse resp;
    ASSERT_TRUE(client.ReadResponse(&resp).ok());
    EXPECT_EQ(resp.code, StatusCode::kOk);
    seen |= 1ull << (resp.request_id - 1);
  }
  EXPECT_EQ(seen, (1ull << kN) - 1);  // every id answered exactly once
  client.Close();
  ExpectNoLeaks();
}

TEST_F(ServerProtocolTest, PipelineDepthRefusesOnlyTheExcess) {
  StartServer();
  // Every drain sleeps just after Answer(), so none of the first
  // kMaxPipelineDepth requests can finish (and free its slot) before the
  // loop thread has read the whole burst.
  ReadCoalescer::SetDrainHoldForTest(std::chrono::milliseconds(60));
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  constexpr uint64_t kExcess = 5;
  constexpr uint64_t kN = kMaxPipelineDepth + kExcess;
  std::string burst;
  for (uint64_t id = 1; id <= kN; ++id) {
    WireRequest req = PingRequest(id);
    req.flags = kFlagNoCoalesce;  // one private drain (and hold) each
    req.body = "? 1";
    burst += EncodeRequestFrame(req);
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());
  std::set<uint64_t> answered, refused;
  for (uint64_t i = 0; i < kN; ++i) {
    WireResponse resp;
    ASSERT_TRUE(client.ReadResponse(&resp).ok()) << "after " << i;
    if (resp.code == StatusCode::kUnavailable) {
      EXPECT_NE(resp.message.find("pipeline depth"), std::string::npos)
          << resp.message;
      refused.insert(resp.request_id);
    } else {
      ASSERT_EQ(resp.code, StatusCode::kOk) << resp.message;
      EXPECT_EQ(resp.num_rows(), 2u);
      answered.insert(resp.request_id);
    }
  }
  // Frames are admitted in stream order: the first kMaxPipelineDepth run,
  // the rest are refused, and all of them on the same live connection.
  std::set<uint64_t> want_answered, want_refused;
  for (uint64_t id = 1; id <= kN; ++id)
    (id <= kMaxPipelineDepth ? want_answered : want_refused).insert(id);
  EXPECT_EQ(answered, want_answered);
  EXPECT_EQ(refused, want_refused);
  EXPECT_EQ(server_->stats().pipeline_rejected, kExcess);
  WireResponse resp;
  ASSERT_TRUE(client.Call(PingRequest(kN + 1), &resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kOk);
  client.Close();
  ExpectNoLeaks();
}

}  // namespace
}  // namespace serve
}  // namespace cqc
