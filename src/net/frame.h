#ifndef BIX_NET_FRAME_H_
#define BIX_NET_FRAME_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/status.h"

namespace bix {

// The serving tier's wire protocol (DESIGN.md section 16). Every message —
// request or response, either direction — is one length-prefixed frame:
//
//   header (16 bytes, all integers little-endian):
//     magic u8 = 0xBB | version u8 = 0x01 | type u8 | flags u8
//     | request_id u32 | payload_len u32 | payload_crc u32
//   payload: payload_len bytes, CRC32C == payload_crc
//
// `request_id` is chosen by the client and echoed verbatim in the
// response, so a client may pipeline requests and match answers out of
// order. The parser validates everything it can *before* allocating: magic
// and version on their first bytes, type and the payload-length cap as
// soon as the header completes — a hostile 4 GiB length never reserves a
// byte. The CRC catches in-flight corruption and turns it into a typed
// error instead of a garbage parse.
constexpr uint8_t kNetMagic = 0xBB;
constexpr uint8_t kNetVersion = 0x01;
constexpr size_t kNetHeaderBytes = 16;
constexpr uint64_t kNetDefaultMaxPayloadBytes = 4ull << 20;

enum class FrameType : uint8_t {
  kPing = 1,
  kInterval = 2,
  kMembership = 3,
  kWriteBatch = 4,
  kResponse = 0x81,
};

// Request flag bits.
constexpr uint8_t kNetFlagCountOnly = 0x01;
constexpr uint8_t kNetFlagTraced = 0x02;

struct FrameHeader {
  uint8_t type = 0;
  uint8_t flags = 0;
  uint32_t request_id = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<uint8_t> payload;
};

// Incremental frame reassembler: feed whatever the socket produced —
// single bytes, half a header, three frames at once — and pull complete
// frames out. The first protocol violation is sticky: the stream is
// unframeable past it, so every later Feed returns the same typed error
// and the connection must close.
//
// Typed rejections:
//   InvalidArgument — bad magic, unsupported version, unknown frame type
//   OutOfRange     — payload_len exceeds the cap (checked pre-allocation)
//   Corruption     — payload checksum mismatch
class FrameParser {
 public:
  explicit FrameParser(
      uint64_t max_payload_bytes = kNetDefaultMaxPayloadBytes);

  // Consumes `n` bytes of stream. Complete frames queue up for Next().
  Status Feed(const uint8_t* data, size_t n);

  bool HasFrame() const { return !frames_.empty(); }
  Frame Next();

  // True while a frame is partially received — the read-deadline clock
  // only runs against a peer that started a frame and stalled.
  bool mid_frame() const {
    return header_filled_ > 0 || payload_.size() < expecting_payload_;
  }
  uint64_t frames_parsed() const { return frames_parsed_; }
  bool failed() const { return !error_.ok(); }

 private:
  uint64_t max_payload_bytes_;  // non-const so the parser stays movable
  uint8_t header_bytes_[kNetHeaderBytes];
  size_t header_filled_ = 0;
  FrameHeader header_;
  uint64_t expecting_payload_ = 0;  // 0 = waiting for a header
  std::vector<uint8_t> payload_;
  std::deque<Frame> frames_;
  Status error_;
  uint64_t frames_parsed_ = 0;
};

// A decoded request. Payload layouts by type:
//   kPing       (empty)
//   kInterval   lo u32 | hi u32 | deadline_micros u64
//   kMembership deadline_micros u64 | n u32 | value u32 * n
//   kWriteBatch n_ins u32 | n_upd u32 | n_del u32
//               | insert_value u32 * n_ins
//               | { rid u64, value u32 } * n_upd
//               | rid u64 * n_del
// deadline_micros is a budget relative to server receipt; 0 = unbounded.
struct NetUpdate {
  uint64_t rid = 0;
  uint32_t value = 0;
};

struct NetRequest {
  FrameType type = FrameType::kPing;
  uint32_t request_id = 0;
  bool count_only = false;
  bool traced = false;
  uint32_t lo = 0;
  uint32_t hi = 0;
  uint64_t deadline_micros = 0;
  std::vector<uint32_t> values;  // membership
  std::vector<uint32_t> inserts;
  std::vector<NetUpdate> updates;
  std::vector<uint64_t> deletes;
};

// A decoded response. Payload layout (type kResponse):
//   status u8 | msg_len u16 | msg bytes
//   | count u64 | row_bits u64 | word_count u32 | word u64 * word_count
//   | trace_len u32 | trace bytes
// row_bits/words carry the result bitvector for successful non-count-only
// queries; otherwise word_count == 0. `trace` is the rendered span tree
// when the request set kNetFlagTraced.
struct NetResponse {
  uint32_t request_id = 0;
  Status::Code code = Status::Code::kOk;
  std::string message;
  uint64_t count = 0;
  uint64_t row_bits = 0;
  std::vector<uint64_t> words;
  std::string trace;
};

// Serialize a complete wire frame (header + payload), built in one
// exactly-sized buffer. A message longer than 65,535 bytes is truncated.
std::vector<uint8_t> EncodeRequest(const NetRequest& req);
std::vector<uint8_t> EncodeResponse(const NetResponse& resp);

// The payload length EncodeResponse(resp) produces, without encoding: what
// a sender checks against the peer's max_payload_bytes first.
uint64_t ResponsePayloadBytes(const NetResponse& resp);

// Decode a parsed frame's payload. InvalidArgument on a structurally
// inconsistent payload (counts disagreeing with the byte length, truncated
// fields) — the CRC already passed, so this is a peer speaking the framing
// but not the schema.
Result<NetRequest> DecodeRequest(const Frame& frame);
Result<NetResponse> DecodeResponse(const Frame& frame);

// Rebuild a Status from its wire code (the response's `status` byte).
Status StatusFromWire(uint8_t code, std::string message);

}  // namespace bix

#endif  // BIX_NET_FRAME_H_
