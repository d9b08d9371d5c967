// cqc wire protocol v1: length-prefixed binary frames over a byte stream.
//
// Full spec in docs/serving.md. Summary:
//
//   frame    := u32 payload_len (LE) | payload
//   payload  := u8 magic (0xCQ = 0xC9) | u8 type | type-specific fields
//
// Request payload (type kRequest):
//   u8  magic, u8 type, u8 flags, u8 reserved (must be 0)
//   u32 deadline_ms      0 = unbounded; the server clamps to its max
//   u64 request_id       echoed verbatim in the response
//   u16 tenant_len, u16 view_len, u32 body_len
//   bytes tenant | view | body
// `view` is an adorned view text ("Q^bf(x,y) = R(x,y)"); `body` is ONE
// line of the cqc script grammar (plan/script.h) — the same grammar
// cqc_cli scripts use, so the CLI and the wire share one parser and one
// malformed-input corpus. Field lengths must sum exactly to payload_len.
//
// Response payload (type kResponse):
//   u8  magic, u8 type, u8 status_code (StatusCode), u8 arity
//   u64 request_id
//   u32 error_offset     wire byte offset a protocol/parse error refers
//                        to (kNoOffset when not addressable)
//   u32 num_rows, u32 msg_len
//   bytes msg | u64 values[num_rows * arity] (LE)
//
// Every decode path is hardened: truncated frames, oversized length
// prefixes, bit-flipped magic/type bytes, and length fields that disagree
// with the payload all produce a Status naming the exact stream byte
// offset — never a crash, never an out-of-bounds read (the corrupt-input
// contract of core/serialization.cc, applied to the wire).
#ifndef CQC_SERVE_PROTOCOL_H_
#define CQC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cqc {
namespace serve {

inline constexpr uint8_t kFrameMagic = 0xC9;
inline constexpr uint8_t kTypeRequest = 1;
inline constexpr uint8_t kTypeResponse = 2;
/// Hard cap on one frame's payload: an oversized length prefix is a
/// protocol error, not an allocation (slow-loris / corruption defense).
inline constexpr uint32_t kMaxPayloadBytes = 4u << 20;
/// "No addressable offset" sentinel for WireResponse::error_offset.
inline constexpr uint32_t kNoOffset = 0xFFFFFFFFu;

/// Request flag bits.
inline constexpr uint8_t kFlagNoCoalesce = 0x1;  // opt out of shared drains

/// Fixed header bytes of a request payload before the variable fields;
/// the body's offset within the payload is this + tenant_len + view_len
/// (the server uses it to map script parse errors to wire offsets).
inline constexpr size_t kRequestFixedBytes = 24;
inline constexpr size_t kResponseFixedBytes = 24;

struct WireRequest {
  uint8_t flags = 0;
  uint32_t deadline_ms = 0;
  uint64_t request_id = 0;
  std::string tenant;
  std::string view;
  std::string body;  // one script line (plan/script.h grammar)
};

struct WireResponse {
  StatusCode code = StatusCode::kOk;
  uint8_t arity = 0;
  uint64_t request_id = 0;
  uint32_t error_offset = kNoOffset;
  std::string message;            // error text ("" on success) or stats text
  std::vector<uint64_t> values;   // num_rows * arity, row-major
  size_t num_rows() const {
    return arity == 0 ? 0 : values.size() / arity;
  }
};

/// Serializes a full frame (length prefix included).
std::string EncodeRequestFrame(const WireRequest& req);
std::string EncodeResponseFrame(const WireResponse& resp);

/// Split encoding for responses whose values section is a separate buffer
/// (the server's drains write it directly, and coalesced waiters share
/// it): the head carries the length prefix, fixed header, and message of a
/// frame whose `body_bytes` values bytes (AppendValues output) follow.
/// `resp.values` is ignored; `num_rows` describes the separate body.
std::string EncodeResponseHead(const WireResponse& resp, uint32_t num_rows,
                               size_t body_bytes);
/// Appends `n` values LE-encoded (the bytes after msg in a response
/// payload). The one implementation of the values encoding.
void AppendValues(std::string* out, const uint64_t* v, size_t n);
/// AppendValues into a fresh string.
std::string EncodeValuesBody(const std::vector<uint64_t>& values);

/// Decodes one frame payload (the bytes after the length prefix).
/// `payload_offset` is the stream offset of payload[0]; error messages and
/// `*error_offset` (when non-null) address absolute stream bytes with it.
Status DecodeRequestPayload(std::string_view payload, uint64_t payload_offset,
                            WireRequest* out,
                            uint64_t* error_offset = nullptr);
Status DecodeResponsePayload(std::string_view payload,
                             uint64_t payload_offset, WireResponse* out,
                             uint64_t* error_offset = nullptr);

/// Incremental frame assembly over an arbitrary chunking of the stream
/// (nonblocking reads hand it whatever arrived, one byte at a time is
/// fine). Errors are sticky: once the stream is malformed there is no
/// resync — the connection must die.
class FrameReader {
 public:
  explicit FrameReader(uint32_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  /// Appends raw stream bytes.
  void Feed(const char* data, size_t n);

  enum class Next : uint8_t {
    kFrame,     // *payload / *payload_offset describe one complete payload
    kNeedMore,  // no complete frame buffered
    kError,     // malformed stream; error() / error_offset() say where
  };

  /// Yields the next complete frame, if any. The returned view is valid
  /// until the next Feed/Poll call.
  Next Poll(std::string_view* payload, uint64_t* payload_offset);

  /// True while bytes of an incomplete frame are buffered — an EOF now is
  /// a mid-frame disconnect, which callers should report via MidStreamEof.
  bool mid_frame() const { return !failed_ && buf_.size() > pos_; }

  /// The protocol error for a peer that closed mid-frame.
  Status MidStreamEof() const;

  const Status& error() const { return error_; }
  uint64_t error_offset() const { return error_offset_; }
  /// Total stream bytes consumed into completed frames.
  uint64_t consumed() const { return base_offset_ + pos_; }

 private:
  Status Fail(uint64_t offset, std::string msg);

  uint32_t max_payload_;
  std::string buf_;
  size_t pos_ = 0;             // start of the un-consumed region in buf_
  uint64_t base_offset_ = 0;   // stream offset of buf_[0]
  bool failed_ = false;
  Status error_;
  uint64_t error_offset_ = 0;
};

// --- little-endian primitives (shared with tests) ---------------------------

void AppendU16(std::string* out, uint16_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
uint16_t ReadU16(const char* p);
uint32_t ReadU32(const char* p);
uint64_t ReadU64(const char* p);

}  // namespace serve
}  // namespace cqc

#endif  // CQC_SERVE_PROTOCOL_H_
