#include "net/frame.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "compress/bytes.h"
#include "util/check.h"
#include "util/crc32c.h"

namespace bix {
namespace {

void AppendU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutLe(uint8_t* p, uint64_t v, int n) {
  for (int i = 0; i < n; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

size_t MessageBytes(const NetResponse& resp) {
  return std::min<size_t>(resp.message.size(), 0xFFFF);
}

uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

bool ValidFrameType(uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kPing:
    case FrameType::kInterval:
    case FrameType::kMembership:
    case FrameType::kWriteBatch:
    case FrameType::kResponse:
      return true;
  }
  return false;
}

// Bounded sequential reader over a payload: every Read checks the
// remaining length first, so a lying count can never walk past the
// buffer (the fuzz suite's core property).
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t n) : p_(data), remaining_(n) {}

  bool ReadU16(uint16_t* v) {
    if (remaining_ < 2) return false;
    *v = bix::ReadU16(p_);
    p_ += 2;
    remaining_ -= 2;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (remaining_ < 4) return false;
    *v = bix::ReadU32(p_);
    p_ += 4;
    remaining_ -= 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (remaining_ < 8) return false;
    *v = bix::ReadU64(p_);
    p_ += 8;
    remaining_ -= 8;
    return true;
  }
  bool ReadBytes(size_t n, std::string* out) {
    if (remaining_ < n) return false;
    out->assign(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    remaining_ -= n;
    return true;
  }
  bool ReadWords(size_t n, std::vector<uint64_t>* out) {
    if (remaining_ / 8 < n) return false;
    out->resize(n);
    LoadWordsLe(p_, 8 * n, out->data());
    p_ += 8 * n;
    remaining_ -= 8 * n;
    return true;
  }
  size_t remaining() const { return remaining_; }

 private:
  const uint8_t* p_;
  size_t remaining_;
};

// A frame is built in one buffer: the encoder reserves its exact size,
// leaves a header slot, appends the payload behind it, and this stamps the
// header once the payload CRC is known, so the payload is never copied.
std::vector<uint8_t> FinishFrame(std::vector<uint8_t> frame, FrameType type,
                                 uint8_t flags, uint32_t request_id) {
  const size_t payload_len = frame.size() - kNetHeaderBytes;
  BIX_CHECK_MSG(payload_len <= std::numeric_limits<uint32_t>::max(),
                "frame payload does not fit the u32 length field");
  uint8_t* h = frame.data();
  h[0] = kNetMagic;
  h[1] = kNetVersion;
  h[2] = static_cast<uint8_t>(type);
  h[3] = flags;
  PutLe(h + 4, request_id, 4);
  PutLe(h + 8, payload_len, 4);
  PutLe(h + 12, Crc32c(h + kNetHeaderBytes, payload_len), 4);
  return frame;
}

}  // namespace

FrameParser::FrameParser(uint64_t max_payload_bytes)
    : max_payload_bytes_(max_payload_bytes) {}

Status FrameParser::Feed(const uint8_t* data, size_t n) {
  if (!error_.ok()) return error_;  // sticky: the stream is unframeable
  size_t i = 0;
  while (i < n) {
    if (expecting_payload_ == 0 && header_filled_ < kNetHeaderBytes) {
      // Header phase. Magic and version are rejected on their own bytes —
      // a client speaking the wrong protocol fails on byte 0, not after
      // buffering 15 bytes of it.
      const uint8_t b = data[i];
      if (header_filled_ == 0 && b != kNetMagic) {
        error_ = Status::InvalidArgument("bad frame magic");
        return error_;
      }
      if (header_filled_ == 1 && b != kNetVersion) {
        error_ = Status::InvalidArgument("unsupported protocol version");
        return error_;
      }
      header_bytes_[header_filled_++] = b;
      ++i;
      if (header_filled_ < kNetHeaderBytes) continue;
      // Header complete: validate type and length *before* any payload
      // allocation.
      header_.type = header_bytes_[2];
      header_.flags = header_bytes_[3];
      header_.request_id = ReadU32(&header_bytes_[4]);
      header_.payload_len = ReadU32(&header_bytes_[8]);
      header_.payload_crc = ReadU32(&header_bytes_[12]);
      if (!ValidFrameType(header_.type)) {
        error_ = Status::InvalidArgument("unknown frame type");
        return error_;
      }
      if (header_.payload_len > max_payload_bytes_) {
        error_ = Status::OutOfRange("frame payload exceeds size cap");
        return error_;
      }
      payload_.clear();
      payload_.reserve(header_.payload_len);
      expecting_payload_ = header_.payload_len;
      if (expecting_payload_ == 0) {
        // Zero-payload frame completes immediately (CRC of nothing is 0;
        // still verified so a lying header is caught).
        if (header_.payload_crc != Crc32c(nullptr, 0)) {
          error_ = Status::Corruption("frame payload checksum mismatch");
          return error_;
        }
        frames_.push_back(Frame{header_, {}});
        ++frames_parsed_;
        header_filled_ = 0;
      }
      continue;
    }
    // Payload phase.
    const size_t want = expecting_payload_ - payload_.size();
    const size_t take = std::min(want, n - i);
    payload_.insert(payload_.end(), data + i, data + i + take);
    i += take;
    if (payload_.size() == expecting_payload_) {
      if (Crc32c(payload_.data(), payload_.size()) != header_.payload_crc) {
        error_ = Status::Corruption("frame payload checksum mismatch");
        return error_;
      }
      frames_.push_back(Frame{header_, std::move(payload_)});
      ++frames_parsed_;
      payload_ = {};
      expecting_payload_ = 0;
      header_filled_ = 0;
    }
  }
  return Status::OK();
}

Frame FrameParser::Next() {
  Frame f = std::move(frames_.front());
  frames_.pop_front();
  return f;
}

std::vector<uint8_t> EncodeRequest(const NetRequest& req) {
  std::vector<uint8_t> frame(kNetHeaderBytes);  // header slot
  switch (req.type) {
    case FrameType::kPing:
      break;
    case FrameType::kInterval:
      frame.reserve(kNetHeaderBytes + 16);
      AppendU32(&frame, req.lo);
      AppendU32(&frame, req.hi);
      AppendU64(&frame, req.deadline_micros);
      break;
    case FrameType::kMembership:
      frame.reserve(kNetHeaderBytes + 12 + 4 * req.values.size());
      AppendU64(&frame, req.deadline_micros);
      AppendU32(&frame, static_cast<uint32_t>(req.values.size()));
      for (uint32_t v : req.values) AppendU32(&frame, v);
      break;
    case FrameType::kWriteBatch:
      frame.reserve(kNetHeaderBytes + 12 + 4 * req.inserts.size() +
                    12 * req.updates.size() + 8 * req.deletes.size());
      AppendU32(&frame, static_cast<uint32_t>(req.inserts.size()));
      AppendU32(&frame, static_cast<uint32_t>(req.updates.size()));
      AppendU32(&frame, static_cast<uint32_t>(req.deletes.size()));
      for (uint32_t v : req.inserts) AppendU32(&frame, v);
      for (const NetUpdate& u : req.updates) {
        AppendU64(&frame, u.rid);
        AppendU32(&frame, u.value);
      }
      for (uint64_t rid : req.deletes) AppendU64(&frame, rid);
      break;
    case FrameType::kResponse:
      break;  // not a request type; encodes as an empty ping-like frame
  }
  uint8_t flags = 0;
  if (req.count_only) flags |= kNetFlagCountOnly;
  if (req.traced) flags |= kNetFlagTraced;
  return FinishFrame(std::move(frame), req.type, flags, req.request_id);
}

uint64_t ResponsePayloadBytes(const NetResponse& resp) {
  return 1 + 2 + MessageBytes(resp) + 8 + 8 + 4 + 8 * resp.words.size() + 4 +
         resp.trace.size();
}

std::vector<uint8_t> EncodeResponse(const NetResponse& resp) {
  std::vector<uint8_t> frame;
  frame.reserve(kNetHeaderBytes + ResponsePayloadBytes(resp));
  frame.resize(kNetHeaderBytes);  // header slot
  frame.push_back(static_cast<uint8_t>(resp.code));
  const size_t msg_len = MessageBytes(resp);
  AppendU16(&frame, static_cast<uint16_t>(msg_len));
  frame.insert(frame.end(), resp.message.begin(),
               resp.message.begin() + msg_len);
  AppendU64(&frame, resp.count);
  AppendU64(&frame, resp.row_bits);
  AppendU32(&frame, static_cast<uint32_t>(resp.words.size()));
  AppendWordsLe(resp.words.data(), 8 * resp.words.size(), &frame);
  AppendU32(&frame, static_cast<uint32_t>(resp.trace.size()));
  frame.insert(frame.end(), resp.trace.begin(), resp.trace.end());
  return FinishFrame(std::move(frame), FrameType::kResponse, 0,
                     resp.request_id);
}

Result<NetRequest> DecodeRequest(const Frame& frame) {
  NetRequest req;
  req.type = static_cast<FrameType>(frame.header.type);
  req.request_id = frame.header.request_id;
  req.count_only = (frame.header.flags & kNetFlagCountOnly) != 0;
  req.traced = (frame.header.flags & kNetFlagTraced) != 0;
  PayloadReader r(frame.payload.data(), frame.payload.size());
  switch (req.type) {
    case FrameType::kPing:
      break;
    case FrameType::kInterval: {
      if (!r.ReadU32(&req.lo) || !r.ReadU32(&req.hi) ||
          !r.ReadU64(&req.deadline_micros)) {
        return Status::InvalidArgument("truncated interval request");
      }
      break;
    }
    case FrameType::kMembership: {
      uint32_t n = 0;
      if (!r.ReadU64(&req.deadline_micros) || !r.ReadU32(&n)) {
        return Status::InvalidArgument("truncated membership request");
      }
      // The count is validated against the actual remaining bytes before
      // reserving — a lying count cannot force a large allocation.
      if (r.remaining() != 4ull * n) {
        return Status::InvalidArgument(
            "membership count disagrees with payload length");
      }
      req.values.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t v = 0;
        r.ReadU32(&v);
        req.values.push_back(v);
      }
      break;
    }
    case FrameType::kWriteBatch: {
      uint32_t n_ins = 0, n_upd = 0, n_del = 0;
      if (!r.ReadU32(&n_ins) || !r.ReadU32(&n_upd) || !r.ReadU32(&n_del)) {
        return Status::InvalidArgument("truncated write batch");
      }
      if (r.remaining() != 4ull * n_ins + 12ull * n_upd + 8ull * n_del) {
        return Status::InvalidArgument(
            "write batch counts disagree with payload length");
      }
      req.inserts.reserve(n_ins);
      for (uint32_t i = 0; i < n_ins; ++i) {
        uint32_t v = 0;
        r.ReadU32(&v);
        req.inserts.push_back(v);
      }
      req.updates.reserve(n_upd);
      for (uint32_t i = 0; i < n_upd; ++i) {
        NetUpdate u;
        r.ReadU64(&u.rid);
        r.ReadU32(&u.value);
        req.updates.push_back(u);
      }
      req.deletes.reserve(n_del);
      for (uint32_t i = 0; i < n_del; ++i) {
        uint64_t rid = 0;
        r.ReadU64(&rid);
        req.deletes.push_back(rid);
      }
      break;
    }
    case FrameType::kResponse:
      return Status::InvalidArgument("response frame sent as request");
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in request payload");
  }
  return req;
}

Result<NetResponse> DecodeResponse(const Frame& frame) {
  if (static_cast<FrameType>(frame.header.type) != FrameType::kResponse) {
    return Status::InvalidArgument("not a response frame");
  }
  NetResponse resp;
  resp.request_id = frame.header.request_id;
  if (frame.payload.empty()) {
    return Status::InvalidArgument("truncated response payload");
  }
  const uint8_t code = frame.payload[0];
  if (code > static_cast<uint8_t>(Status::Code::kCancelled)) {
    return Status::InvalidArgument("unknown status code in response");
  }
  resp.code = static_cast<Status::Code>(code);
  PayloadReader r(frame.payload.data() + 1, frame.payload.size() - 1);
  uint16_t msg_len = 0;
  if (!r.ReadU16(&msg_len)) {
    return Status::InvalidArgument("truncated response payload");
  }
  if (!r.ReadBytes(msg_len, &resp.message)) {
    return Status::InvalidArgument("truncated response message");
  }
  uint32_t word_count = 0;
  if (!r.ReadU64(&resp.count) || !r.ReadU64(&resp.row_bits) ||
      !r.ReadU32(&word_count)) {
    return Status::InvalidArgument("truncated response payload");
  }
  // The count is checked against the bytes actually present before the
  // word array is sized, so a lying count cannot force an allocation.
  if (!r.ReadWords(word_count, &resp.words)) {
    return Status::InvalidArgument(
        "response word count disagrees with payload length");
  }
  uint32_t trace_len = 0;
  if (!r.ReadU32(&trace_len) || !r.ReadBytes(trace_len, &resp.trace)) {
    return Status::InvalidArgument("truncated response trace");
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in response payload");
  }
  return resp;
}

Status StatusFromWire(uint8_t code, std::string message) {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case Status::Code::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(message));
    case Status::Code::kNotSupported:
      return Status::NotSupported(std::move(message));
    case Status::Code::kUnavailable:
      return Status::Unavailable(std::move(message));
    case Status::Code::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case Status::Code::kCancelled:
      return Status::Cancelled(std::move(message));
  }
  return Status::InvalidArgument("unknown wire status code");
}

}  // namespace bix
