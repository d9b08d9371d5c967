#include "serve/protocol.h"

#include <cstring>

#include "util/str_util.h"

namespace cqc {
namespace serve {

void AppendU16(std::string* out, uint16_t v) {
  out->push_back((char)(v & 0xFF));
  out->push_back((char)((v >> 8) & 0xFF));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((char)((v >> (8 * i)) & 0xFF));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((char)((v >> (8 * i)) & 0xFF));
}

uint16_t ReadU16(const char* p) {
  return (uint16_t)((uint8_t)p[0] | ((uint16_t)(uint8_t)p[1] << 8));
}

uint32_t ReadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | (uint8_t)p[i];
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | (uint8_t)p[i];
  return v;
}

namespace {

/// Prefixes the assembled payload with its length.
std::string WithLengthPrefix(std::string payload) {
  std::string out;
  out.reserve(4 + payload.size());
  AppendU32(&out, (uint32_t)payload.size());
  out += payload;
  return out;
}

/// Formats "at wire offset N" errors and records the offset out-param.
Status WireError(uint64_t offset, uint64_t* error_offset, std::string what) {
  if (error_offset != nullptr) *error_offset = offset;
  return Status::Error(
      StrFormat("%s (wire offset %llu)", what.c_str(),
                (unsigned long long)offset));
}

}  // namespace

std::string EncodeRequestFrame(const WireRequest& req) {
  std::string p;
  p.reserve(kRequestFixedBytes + req.tenant.size() + req.view.size() +
            req.body.size());
  p.push_back((char)kFrameMagic);
  p.push_back((char)kTypeRequest);
  p.push_back((char)req.flags);
  p.push_back((char)0);  // reserved
  AppendU32(&p, req.deadline_ms);
  AppendU64(&p, req.request_id);
  AppendU16(&p, (uint16_t)req.tenant.size());
  AppendU16(&p, (uint16_t)req.view.size());
  AppendU32(&p, (uint32_t)req.body.size());
  p += req.tenant;
  p += req.view;
  p += req.body;
  return WithLengthPrefix(std::move(p));
}

std::string EncodeResponseHead(const WireResponse& resp, uint32_t num_rows,
                               size_t body_bytes) {
  std::string out;
  out.reserve(4 + kResponseFixedBytes + resp.message.size());
  AppendU32(&out,
            (uint32_t)(kResponseFixedBytes + resp.message.size() + body_bytes));
  out.push_back((char)kFrameMagic);
  out.push_back((char)kTypeResponse);
  out.push_back((char)resp.code);
  out.push_back((char)resp.arity);
  AppendU64(&out, resp.request_id);
  AppendU32(&out, resp.error_offset);
  AppendU32(&out, num_rows);
  AppendU32(&out, (uint32_t)resp.message.size());
  out += resp.message;
  return out;
}

void AppendValues(std::string* out, const uint64_t* v, size_t n) {
  if (n == 0) return;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The wire is little-endian, so on LE hosts the in-memory u64 array IS
  // the encoding: one bulk append (no zero-fill of the new bytes) instead
  // of a shift loop per value. Every response's values section comes
  // through here.
  out->append(reinterpret_cast<const char*>(v), n * 8);
#else
  for (size_t i = 0; i < n; ++i) AppendU64(out, v[i]);
#endif
}

std::string EncodeValuesBody(const std::vector<uint64_t>& values) {
  std::string out;
  AppendValues(&out, values.data(), values.size());
  return out;
}

std::string EncodeResponseFrame(const WireResponse& resp) {
  std::string out = EncodeResponseHead(resp, (uint32_t)resp.num_rows(),
                                       resp.values.size() * 8);
  AppendValues(&out, resp.values.data(), resp.values.size());
  return out;
}

Status DecodeRequestPayload(std::string_view payload, uint64_t payload_offset,
                            WireRequest* out, uint64_t* error_offset) {
  const char* p = payload.data();
  if (payload.size() < kRequestFixedBytes)
    return WireError(payload_offset + payload.size(), error_offset,
                     StrFormat("request payload truncated: %zu byte(s), "
                               "fixed header needs %zu",
                               payload.size(), kRequestFixedBytes));
  if ((uint8_t)p[0] != kFrameMagic)
    return WireError(payload_offset, error_offset,
                     StrFormat("bad frame magic 0x%02X (want 0x%02X)",
                               (unsigned)(uint8_t)p[0],
                               (unsigned)kFrameMagic));
  if ((uint8_t)p[1] != kTypeRequest)
    return WireError(payload_offset + 1, error_offset,
                     StrFormat("unexpected frame type %u (want request %u)",
                               (unsigned)(uint8_t)p[1],
                               (unsigned)kTypeRequest));
  if ((uint8_t)p[3] != 0)
    return WireError(payload_offset + 3, error_offset,
                     "nonzero reserved byte in request header");
  out->flags = (uint8_t)p[2];
  out->deadline_ms = ReadU32(p + 4);
  out->request_id = ReadU64(p + 8);
  const size_t tenant_len = ReadU16(p + 16);
  const size_t view_len = ReadU16(p + 18);
  const size_t body_len = ReadU32(p + 20);
  const size_t want = kRequestFixedBytes + tenant_len + view_len + body_len;
  if (want != payload.size())
    return WireError(payload_offset + 16, error_offset,
                     StrFormat("request field lengths sum to %zu but the "
                               "payload holds %zu byte(s)",
                               want, payload.size()));
  const char* var = p + kRequestFixedBytes;
  out->tenant.assign(var, tenant_len);
  out->view.assign(var + tenant_len, view_len);
  out->body.assign(var + tenant_len + view_len, body_len);
  return Status::Ok();
}

Status DecodeResponsePayload(std::string_view payload,
                             uint64_t payload_offset, WireResponse* out,
                             uint64_t* error_offset) {
  const char* p = payload.data();
  if (payload.size() < kResponseFixedBytes)
    return WireError(payload_offset + payload.size(), error_offset,
                     StrFormat("response payload truncated: %zu byte(s), "
                               "fixed header needs %zu",
                               payload.size(), kResponseFixedBytes));
  if ((uint8_t)p[0] != kFrameMagic)
    return WireError(payload_offset, error_offset,
                     StrFormat("bad frame magic 0x%02X (want 0x%02X)",
                               (unsigned)(uint8_t)p[0],
                               (unsigned)kFrameMagic));
  if ((uint8_t)p[1] != kTypeResponse)
    return WireError(payload_offset + 1, error_offset,
                     StrFormat("unexpected frame type %u (want response %u)",
                               (unsigned)(uint8_t)p[1],
                               (unsigned)kTypeResponse));
  const uint8_t raw_code = (uint8_t)p[2];
  if (raw_code > (uint8_t)StatusCode::kUnavailable)
    return WireError(payload_offset + 2, error_offset,
                     StrFormat("unknown status code %u", (unsigned)raw_code));
  out->code = (StatusCode)raw_code;
  out->arity = (uint8_t)p[3];
  out->request_id = ReadU64(p + 4);
  out->error_offset = ReadU32(p + 12);
  const size_t num_rows = ReadU32(p + 16);
  const size_t msg_len = ReadU32(p + 20);
  const size_t num_values = num_rows * (size_t)out->arity;
  if (out->arity == 0 && num_rows != 0)
    return WireError(payload_offset + 16, error_offset,
                     StrFormat("%zu row(s) with arity 0", num_rows));
  const size_t want = kResponseFixedBytes + msg_len + num_values * 8;
  if (want != payload.size())
    return WireError(payload_offset + 16, error_offset,
                     StrFormat("response field lengths sum to %zu but the "
                               "payload holds %zu byte(s)",
                               want, payload.size()));
  const char* var = p + kResponseFixedBytes;
  out->message.assign(var, msg_len);
  out->values.resize(num_values);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  if (num_values > 0)
    std::memcpy(out->values.data(), var + msg_len, num_values * 8);
#else
  for (size_t i = 0; i < num_values; ++i)
    out->values[i] = ReadU64(var + msg_len + i * 8);
#endif
  return Status::Ok();
}

void FrameReader::Feed(const char* data, size_t n) {
  if (failed_) return;  // the stream is already dead; drop the bytes
  // Compact before growing: pos_ only moves forward, so without this the
  // buffer would retain every consumed frame for the connection's life.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 64 * 1024)) {
    buf_.erase(0, pos_);
    base_offset_ += pos_;
    pos_ = 0;
  }
  buf_.append(data, n);
}

Status FrameReader::Fail(uint64_t offset, std::string msg) {
  failed_ = true;
  error_offset_ = offset;
  error_ = Status::Error(StrFormat("%s (wire offset %llu)", msg.c_str(),
                                   (unsigned long long)offset));
  return error_;
}

FrameReader::Next FrameReader::Poll(std::string_view* payload,
                                    uint64_t* payload_offset) {
  if (failed_) return Next::kError;
  const size_t avail = buf_.size() - pos_;
  if (avail < 4) return Next::kNeedMore;
  const uint32_t len = ReadU32(buf_.data() + pos_);
  if (len > max_payload_) {
    Fail(base_offset_ + pos_,
         StrFormat("frame length %u exceeds the %u-byte payload cap", len,
                   max_payload_));
    return Next::kError;
  }
  if (len < 2) {
    // Every payload starts with magic + type; anything shorter cannot be a
    // frame of this protocol.
    Fail(base_offset_ + pos_,
         StrFormat("frame length %u below the 2-byte payload minimum", len));
    return Next::kError;
  }
  if (avail < 4 + (size_t)len) return Next::kNeedMore;
  *payload = std::string_view(buf_.data() + pos_ + 4, len);
  *payload_offset = base_offset_ + pos_ + 4;
  pos_ += 4 + (size_t)len;
  return Next::kFrame;
}

Status FrameReader::MidStreamEof() const {
  return Status::Error(StrFormat(
      "connection closed mid-frame: %zu byte(s) of an incomplete frame "
      "after wire offset %llu",
      buf_.size() - pos_, (unsigned long long)(base_offset_ + pos_)));
}

}  // namespace serve
}  // namespace cqc
