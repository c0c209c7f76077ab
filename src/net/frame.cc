#include "net/frame.h"

#include <algorithm>
#include <limits>

#include "util/byte_io.h"
#include "util/check.h"
#include "util/crc32c.h"

namespace bix {
namespace {

size_t MessageBytes(const NetResponse& resp) {
  return std::min<size_t>(resp.message.size(), 0xFFFF);
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
  StoreLe32(h + 4, request_id);
  StoreLe32(h + 8, static_cast<uint32_t>(payload_len));
  StoreLe32(h + 12, Crc32c(h + kNetHeaderBytes, payload_len));
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
      header_.request_id = LoadLe32(&header_bytes_[4]);
      header_.payload_len = LoadLe32(&header_bytes_[8]);
      header_.payload_crc = LoadLe32(&header_bytes_[12]);
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
      AppendLe32(&frame, req.lo);
      AppendLe32(&frame, req.hi);
      AppendLe64(&frame, req.deadline_micros);
      break;
    case FrameType::kMembership:
      frame.reserve(kNetHeaderBytes + 12 + 4 * req.values.size());
      AppendLe64(&frame, req.deadline_micros);
      AppendLe32(&frame, static_cast<uint32_t>(req.values.size()));
      AppendWords32Le(req.values.data(), req.values.size(), &frame);
      break;
    case FrameType::kWriteBatch:
      frame.reserve(kNetHeaderBytes + 12 + 4 * req.inserts.size() +
                    12 * req.updates.size() + 8 * req.deletes.size());
      AppendLe32(&frame, static_cast<uint32_t>(req.inserts.size()));
      AppendLe32(&frame, static_cast<uint32_t>(req.updates.size()));
      AppendLe32(&frame, static_cast<uint32_t>(req.deletes.size()));
      AppendWords32Le(req.inserts.data(), req.inserts.size(), &frame);
      for (const NetUpdate& u : req.updates) {
        AppendLe64(&frame, u.rid);
        AppendLe32(&frame, u.value);
      }
      AppendWordsLe(req.deletes.data(), 8 * req.deletes.size(), &frame);
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
  AppendLe16(&frame, static_cast<uint16_t>(msg_len));
  frame.insert(frame.end(), resp.message.begin(),
               resp.message.begin() + msg_len);
  AppendLe64(&frame, resp.count);
  AppendLe64(&frame, resp.row_bits);
  AppendLe32(&frame, static_cast<uint32_t>(resp.words.size()));
  AppendWordsLe(resp.words.data(), 8 * resp.words.size(), &frame);
  AppendLe32(&frame, static_cast<uint32_t>(resp.trace.size()));
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
  ByteReader r(frame.payload);
  switch (req.type) {
    case FrameType::kPing:
      break;
    case FrameType::kInterval:
      req.lo = r.Le32();
      req.hi = r.Le32();
      req.deadline_micros = r.Le64();
      if (!r.ok()) return Status::InvalidArgument("truncated interval request");
      break;
    case FrameType::kMembership: {
      req.deadline_micros = r.Le64();
      const uint32_t n = r.Le32();
      if (!r.ok()) {
        return Status::InvalidArgument("truncated membership request");
      }
      // The count is validated against the actual remaining bytes before
      // sizing — a lying count cannot force a large allocation.
      if (r.remaining() != 4ull * n) {
        return Status::InvalidArgument(
            "membership count disagrees with payload length");
      }
      req.values.resize(n);
      r.Le32s(req.values.data(), n);
      break;
    }
    case FrameType::kWriteBatch: {
      const uint32_t n_ins = r.Le32();
      const uint32_t n_upd = r.Le32();
      const uint32_t n_del = r.Le32();
      if (!r.ok()) return Status::InvalidArgument("truncated write batch");
      if (r.remaining() != 4ull * n_ins + 12ull * n_upd + 8ull * n_del) {
        return Status::InvalidArgument(
            "write batch counts disagree with payload length");
      }
      req.inserts.resize(n_ins);
      r.Le32s(req.inserts.data(), n_ins);
      req.updates.resize(n_upd);
      for (NetUpdate& u : req.updates) {
        u.rid = r.Le64();
        u.value = r.Le32();
      }
      req.deletes.resize(n_del);
      r.Le64s(req.deletes.data(), n_del);
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
  ByteReader r(frame.payload);
  const uint8_t code = r.U8();
  if (!r.ok()) return Status::InvalidArgument("truncated response payload");
  if (code > static_cast<uint8_t>(Status::Code::kCancelled)) {
    return Status::InvalidArgument("unknown status code in response");
  }
  resp.code = static_cast<Status::Code>(code);
  const uint16_t msg_len = r.Le16();
  if (!r.ok()) return Status::InvalidArgument("truncated response payload");
  resp.message = r.Chars(msg_len);
  if (!r.ok()) return Status::InvalidArgument("truncated response message");
  resp.count = r.Le64();
  resp.row_bits = r.Le64();
  const uint32_t word_count = r.Le32();
  if (!r.ok()) return Status::InvalidArgument("truncated response payload");
  // The count is checked against the bytes actually present before the
  // word array is sized, so a lying count cannot force an allocation.
  if (!r.Need(word_count, 8)) {
    return Status::InvalidArgument(
        "response word count disagrees with payload length");
  }
  resp.words.resize(word_count);
  r.Le64s(resp.words.data(), word_count);
  const uint32_t trace_len = r.Le32();
  resp.trace = r.Chars(trace_len);
  if (!r.ok()) return Status::InvalidArgument("truncated response trace");
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
