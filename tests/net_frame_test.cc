// Frame-protocol hardening tests: round-trip fidelity for every message
// type, split-delivery reassembly at all byte boundaries, and a fuzz sweep
// (random byte soup + structured mutations of valid frames) asserting the
// parser's safety contract — typed errors only, no crash, no allocation
// driven by a hostile length field. CI also builds this suite under
// address,undefined sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace bix {
namespace {

NetRequest SampleMembership() {
  NetRequest req;
  req.type = FrameType::kMembership;
  req.request_id = 42;
  req.count_only = true;
  req.traced = true;
  req.deadline_micros = 250'000;
  req.values = {1, 5, 9, 30};
  return req;
}

TEST(NetFrame, PingRoundTrip) {
  NetRequest req;
  req.type = FrameType::kPing;
  req.request_id = 7;
  const std::vector<uint8_t> bytes = EncodeRequest(req);
  ASSERT_EQ(bytes.size(), kNetHeaderBytes);

  FrameParser parser;
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(parser.HasFrame());
  const Frame frame = parser.Next();
  const NetRequest out = DecodeRequest(frame).value();
  EXPECT_EQ(out.type, FrameType::kPing);
  EXPECT_EQ(out.request_id, 7u);
  EXPECT_FALSE(parser.mid_frame());
}

TEST(NetFrame, IntervalRoundTrip) {
  NetRequest req;
  req.type = FrameType::kInterval;
  req.request_id = 3;
  req.lo = 4;
  req.hi = 17;
  req.deadline_micros = 1'000'000;
  req.traced = true;
  FrameParser parser;
  const std::vector<uint8_t> bytes = EncodeRequest(req);
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size()).ok());
  const NetRequest out = DecodeRequest(parser.Next()).value();
  EXPECT_EQ(out.lo, 4u);
  EXPECT_EQ(out.hi, 17u);
  EXPECT_EQ(out.deadline_micros, 1'000'000u);
  EXPECT_TRUE(out.traced);
  EXPECT_FALSE(out.count_only);
}

TEST(NetFrame, MembershipRoundTrip) {
  const NetRequest req = SampleMembership();
  FrameParser parser;
  const std::vector<uint8_t> bytes = EncodeRequest(req);
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size()).ok());
  const NetRequest out = DecodeRequest(parser.Next()).value();
  EXPECT_EQ(out.values, req.values);
  EXPECT_TRUE(out.count_only);
  EXPECT_TRUE(out.traced);
  EXPECT_EQ(out.deadline_micros, 250'000u);
}

TEST(NetFrame, WriteBatchRoundTrip) {
  NetRequest req;
  req.type = FrameType::kWriteBatch;
  req.request_id = 9;
  req.inserts = {3, 1, 4};
  req.updates = {{10, 7}, {200, 1}};
  req.deletes = {5, 6};
  FrameParser parser;
  const std::vector<uint8_t> bytes = EncodeRequest(req);
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size()).ok());
  const NetRequest out = DecodeRequest(parser.Next()).value();
  EXPECT_EQ(out.inserts, req.inserts);
  ASSERT_EQ(out.updates.size(), 2u);
  EXPECT_EQ(out.updates[0].rid, 10u);
  EXPECT_EQ(out.updates[0].value, 7u);
  EXPECT_EQ(out.updates[1].rid, 200u);
  EXPECT_EQ(out.deletes, req.deletes);
}

TEST(NetFrame, ResponseRoundTrip) {
  NetResponse resp;
  resp.request_id = 11;
  resp.code = Status::Code::kOk;
  resp.count = 123;
  resp.row_bits = 200;
  resp.words = {0xDEADBEEFull, 0x12345678ull, 0x0F0F0F0Full, 0x1ull};
  resp.trace = "query 1.5ms\n  eval 1.0ms";
  FrameParser parser;
  const std::vector<uint8_t> bytes = EncodeResponse(resp);
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size()).ok());
  const NetResponse out = DecodeResponse(parser.Next()).value();
  EXPECT_EQ(out.request_id, 11u);
  EXPECT_EQ(out.code, Status::Code::kOk);
  EXPECT_EQ(out.count, 123u);
  EXPECT_EQ(out.row_bits, 200u);
  EXPECT_EQ(out.words, resp.words);
  EXPECT_EQ(out.trace, resp.trace);
}

// Byte-at-a-time encoders written from the layouts in frame.h and
// checksummed with the portable CRC: the reference the one-buffer encoders
// must match byte for byte, so the wire never drifts.
void PutLe(std::vector<uint8_t>* out, uint64_t v, int n) {
  for (int i = 0; i < n; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

std::vector<uint8_t> ReferenceFrame(FrameType type, uint8_t flags,
                                    uint32_t request_id,
                                    const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame = {kNetMagic, kNetVersion,
                                static_cast<uint8_t>(type), flags};
  PutLe(&frame, request_id, 4);
  PutLe(&frame, payload.size(), 4);
  PutLe(&frame, Crc32cExtendPortable(0, payload.data(), payload.size()), 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::vector<uint8_t> ReferenceEncodeResponse(const NetResponse& resp) {
  std::vector<uint8_t> payload;
  payload.push_back(static_cast<uint8_t>(resp.code));
  const size_t msg_len = std::min<size_t>(resp.message.size(), 0xFFFF);
  PutLe(&payload, msg_len, 2);
  payload.insert(payload.end(), resp.message.begin(),
                 resp.message.begin() + msg_len);
  PutLe(&payload, resp.count, 8);
  PutLe(&payload, resp.row_bits, 8);
  PutLe(&payload, resp.words.size(), 4);
  for (uint64_t w : resp.words) PutLe(&payload, w, 8);
  PutLe(&payload, resp.trace.size(), 4);
  payload.insert(payload.end(), resp.trace.begin(), resp.trace.end());
  return ReferenceFrame(FrameType::kResponse, 0, resp.request_id, payload);
}

TEST(NetFrame, EncodeRequestMatchesByteAtATimeReference) {
  NetRequest interval;
  interval.type = FrameType::kInterval;
  interval.request_id = 3;
  interval.lo = 4;
  interval.hi = 17;
  interval.deadline_micros = 1'000'000;
  std::vector<uint8_t> payload;
  PutLe(&payload, 4, 4);
  PutLe(&payload, 17, 4);
  PutLe(&payload, 1'000'000, 8);
  EXPECT_EQ(EncodeRequest(interval),
            ReferenceFrame(FrameType::kInterval, 0, 3, payload));

  const NetRequest membership = SampleMembership();
  payload.clear();
  PutLe(&payload, membership.deadline_micros, 8);
  PutLe(&payload, membership.values.size(), 4);
  for (uint32_t v : membership.values) PutLe(&payload, v, 4);
  EXPECT_EQ(EncodeRequest(membership),
            ReferenceFrame(FrameType::kMembership,
                           kNetFlagCountOnly | kNetFlagTraced, 42, payload));

  NetRequest batch;
  batch.type = FrameType::kWriteBatch;
  batch.request_id = 9;
  batch.inserts = {3, 1};
  batch.updates = {{10, 7}};
  batch.deletes = {5, 6, 8};
  payload.clear();
  PutLe(&payload, 2, 4);
  PutLe(&payload, 1, 4);
  PutLe(&payload, 3, 4);
  PutLe(&payload, 3, 4);
  PutLe(&payload, 1, 4);
  PutLe(&payload, 10, 8);
  PutLe(&payload, 7, 4);
  for (uint64_t rid : batch.deletes) PutLe(&payload, rid, 8);
  EXPECT_EQ(EncodeRequest(batch),
            ReferenceFrame(FrameType::kWriteBatch, 0, 9, payload));
}

TEST(NetFrame, EncodeResponseMatchesByteAtATimeReference) {
  Rng rng(125043);
  std::vector<NetResponse> cases;
  // 0, 1 and an odd number of words, and a 1M-row bitmap (15,625 words).
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{15'625}}) {
    NetResponse resp;
    resp.request_id = static_cast<uint32_t>(1000 + n);
    resp.count = 3 * n;
    resp.row_bits = 64 * n;
    for (size_t i = 0; i < n; ++i) resp.words.push_back(rng.engine()());
    cases.push_back(resp);
  }
  NetResponse annotated = cases[2];
  annotated.message = "served from a degraded cache";
  annotated.trace = "query 1.5ms\n  eval 1.0ms";
  cases.push_back(annotated);
  NetResponse long_message;
  long_message.request_id = 9;
  long_message.code = Status::Code::kInvalidArgument;
  long_message.message = std::string(70'000, 'm');  // truncated to 65,535
  long_message.trace = "t";
  cases.push_back(long_message);

  for (const NetResponse& resp : cases) {
    const std::vector<uint8_t> bytes = EncodeResponse(resp);
    ASSERT_EQ(bytes, ReferenceEncodeResponse(resp))
        << "request " << resp.request_id;
    EXPECT_EQ(bytes.size(), kNetHeaderBytes + ResponsePayloadBytes(resp));
    FrameParser parser;
    ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(parser.HasFrame());
    const NetResponse out = DecodeResponse(parser.Next()).value();
    EXPECT_EQ(out.request_id, resp.request_id);
    EXPECT_EQ(out.code, resp.code);
    EXPECT_EQ(out.message, resp.message.substr(0, 0xFFFF));
    EXPECT_EQ(out.count, resp.count);
    EXPECT_EQ(out.row_bits, resp.row_bits);
    EXPECT_EQ(out.words, resp.words);
    EXPECT_EQ(out.trace, resp.trace);
  }
}

TEST(NetFrame, ErrorResponseRoundTrip) {
  NetResponse resp;
  resp.request_id = 12;
  resp.code = Status::Code::kDeadlineExceeded;
  resp.message = "deadline expired while queued";
  FrameParser parser;
  const std::vector<uint8_t> bytes = EncodeResponse(resp);
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size()).ok());
  const NetResponse out = DecodeResponse(parser.Next()).value();
  EXPECT_EQ(out.code, Status::Code::kDeadlineExceeded);
  EXPECT_EQ(out.message, "deadline expired while queued");
  const Status st = StatusFromWire(static_cast<uint8_t>(out.code), out.message);
  EXPECT_EQ(st.code(), Status::Code::kDeadlineExceeded);
}

// Reassembly: the same frames must come out whatever the read boundaries
// were — one byte at a time, odd chunks, everything at once.
TEST(NetFrame, SplitDeliveryEveryBoundary) {
  std::vector<uint8_t> stream;
  {
    const std::vector<uint8_t> a = EncodeRequest(SampleMembership());
    NetRequest ping;
    ping.type = FrameType::kPing;
    ping.request_id = 2;
    const std::vector<uint8_t> b = EncodeRequest(ping);
    stream.insert(stream.end(), a.begin(), a.end());
    stream.insert(stream.end(), b.begin(), b.end());
  }
  for (size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameParser parser;
    size_t off = 0;
    uint32_t frames = 0;
    while (off < stream.size()) {
      const size_t n = std::min(chunk, stream.size() - off);
      ASSERT_TRUE(parser.Feed(stream.data() + off, n).ok());
      off += n;
      while (parser.HasFrame()) {
        const Frame f = parser.Next();
        ASSERT_TRUE(DecodeRequest(f).ok());
        ++frames;
      }
    }
    EXPECT_EQ(frames, 2u) << "chunk=" << chunk;
    EXPECT_FALSE(parser.mid_frame());
  }
}

TEST(NetFrame, BadMagicRejectedOnFirstByte) {
  FrameParser parser;
  const uint8_t bad[] = {0x00};
  const Status s = parser.Feed(bad, 1);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  // Sticky: valid bytes after the poison still fail.
  const uint8_t magic[] = {kNetMagic};
  EXPECT_EQ(parser.Feed(magic, 1).code(), Status::Code::kInvalidArgument);
}

TEST(NetFrame, BadVersionRejected) {
  FrameParser parser;
  const uint8_t bytes[] = {kNetMagic, 0x7F};
  EXPECT_EQ(parser.Feed(bytes, 2).code(), Status::Code::kInvalidArgument);
}

TEST(NetFrame, UnknownTypeRejected) {
  std::vector<uint8_t> bytes = EncodeRequest(SampleMembership());
  bytes[2] = 0x55;  // type byte
  FrameParser parser;
  EXPECT_EQ(parser.Feed(bytes.data(), bytes.size()).code(),
            Status::Code::kInvalidArgument);
}

// The cap is enforced from the header alone: a hostile length never gets
// its payload buffered (or even sent) before rejection.
TEST(NetFrame, OversizedLengthRejectedBeforePayload) {
  std::vector<uint8_t> header = EncodeRequest(SampleMembership());
  header.resize(kNetHeaderBytes);
  // Rewrite payload_len to 256 MiB.
  const uint32_t huge = 256u << 20;
  for (int i = 0; i < 4; ++i) {
    header[8 + i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  FrameParser parser(/*max_payload_bytes=*/4 << 20);
  EXPECT_EQ(parser.Feed(header.data(), header.size()).code(),
            Status::Code::kOutOfRange);
}

TEST(NetFrame, CorruptPayloadRejectedWithCorruption) {
  std::vector<uint8_t> bytes = EncodeRequest(SampleMembership());
  bytes[bytes.size() - 1] ^= 0x01;  // flip a payload bit
  FrameParser parser;
  EXPECT_EQ(parser.Feed(bytes.data(), bytes.size()).code(),
            Status::Code::kCorruption);
}

TEST(NetFrame, CorruptHeaderCrcRejected) {
  std::vector<uint8_t> bytes = EncodeRequest(SampleMembership());
  bytes[12] ^= 0x01;  // crc field
  FrameParser parser;
  EXPECT_EQ(parser.Feed(bytes.data(), bytes.size()).code(),
            Status::Code::kCorruption);
}

TEST(NetFrame, TruncatedFrameIsMidFrameNotError) {
  const std::vector<uint8_t> bytes = EncodeRequest(SampleMembership());
  FrameParser parser;
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size() - 3).ok());
  EXPECT_FALSE(parser.HasFrame());
  EXPECT_TRUE(parser.mid_frame());
  ASSERT_TRUE(parser.Feed(bytes.data() + bytes.size() - 3, 3).ok());
  EXPECT_TRUE(parser.HasFrame());
}

// Schema-level validation: a payload whose counts disagree with its length
// decodes to a typed error, not a wild read (the CRC passed, so this is
// DecodeRequest's job, and ASan watches it here).
TEST(NetFrame, LyingMembershipCountRejected) {
  NetRequest req = SampleMembership();
  std::vector<uint8_t> bytes = EncodeRequest(req);
  // Payload: deadline u64 | n u32 | values. Bump n by one and re-CRC so
  // the frame parses but the schema does not.
  const size_t n_off = kNetHeaderBytes + 8;
  bytes[n_off] = static_cast<uint8_t>(req.values.size() + 1);
  const uint32_t crc =
      Crc32c(bytes.data() + kNetHeaderBytes, bytes.size() - kNetHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    bytes[12 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  FrameParser parser;
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(parser.HasFrame());
  EXPECT_EQ(DecodeRequest(parser.Next()).status().code(),
            Status::Code::kInvalidArgument);
}

// Fuzz: random byte soup. The parser must always return (typed error or
// clean parse), never crash or over-allocate; ASan+UBSan make memory
// violations loud in CI.
TEST(NetFrame, FuzzRandomBytes) {
  Rng rng(20260808);
  for (int iter = 0; iter < 2000; ++iter) {
    FrameParser parser(1 << 16);
    const int feeds = static_cast<int>(rng.UniformInt(1, 8));
    for (int f = 0; f < feeds; ++f) {
      std::vector<uint8_t> junk(
          static_cast<size_t>(rng.UniformInt(0, 300)));
      for (auto& b : junk) {
        b = static_cast<uint8_t>(rng.UniformInt(0, 255));
      }
      // Bias some streams toward valid-looking prefixes so deeper states
      // get explored too.
      if (!junk.empty() && rng.Bernoulli(0.5)) junk[0] = kNetMagic;
      if (junk.size() > 1 && rng.Bernoulli(0.5)) junk[1] = kNetVersion;
      const Status s = parser.Feed(junk.data(), junk.size());
      if (!s.ok()) break;  // sticky; this stream is done
      while (parser.HasFrame()) {
        const Frame frame = parser.Next();
        (void)DecodeRequest(frame);
        (void)DecodeResponse(frame);
      }
    }
  }
}

// Fuzz: structured mutations of valid frames — single byte flips at every
// position must yield either a clean parse (flip hit a don't-care bit...
// impossible here since CRC covers the payload and the header is fully
// validated) or a typed error. Never a crash or hang.
TEST(NetFrame, FuzzMutatedValidFrames) {
  const std::vector<uint8_t> base = EncodeRequest(SampleMembership());
  int typed_errors = 0;
  for (size_t pos = 0; pos < base.size(); ++pos) {
    for (uint8_t bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = base;
      mutated[pos] ^= static_cast<uint8_t>(1u << bit);
      FrameParser parser;
      Status s = parser.Feed(mutated.data(), mutated.size());
      if (s.ok() && parser.HasFrame()) {
        // Header flags / request_id flips still parse; the payload is CRC-
        // protected, so a completed frame here must carry intact payload.
        const Frame f = parser.Next();
        EXPECT_EQ(f.payload.size(),
                  base.size() - kNetHeaderBytes);
      } else if (!s.ok()) {
        ++typed_errors;
        EXPECT_TRUE(s.code() == Status::Code::kInvalidArgument ||
                    s.code() == Status::Code::kOutOfRange ||
                    s.code() == Status::Code::kCorruption);
      }
      // else: flip in payload_len made the frame longer — parser waits
      // mid-frame, which is also safe behavior.
    }
  }
  EXPECT_GT(typed_errors, 0);
}

// Fuzz: random chunked interleavings of valid frames with a seeded Rng —
// every interleaving must produce the exact same frame sequence.
TEST(NetFrame, FuzzChunkedDeliveryDeterminism) {
  std::vector<uint8_t> stream;
  for (uint32_t i = 1; i <= 5; ++i) {
    NetRequest req = SampleMembership();
    req.request_id = i;
    const std::vector<uint8_t> bytes = EncodeRequest(req);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    FrameParser parser;
    size_t off = 0;
    std::vector<uint32_t> ids;
    while (off < stream.size()) {
      const size_t n = static_cast<size_t>(
          rng.UniformInt(1, 40));
      const size_t take = std::min(n, stream.size() - off);
      ASSERT_TRUE(parser.Feed(stream.data() + off, take).ok());
      off += take;
      while (parser.HasFrame()) {
        ids.push_back(DecodeRequest(parser.Next()).value().request_id);
      }
    }
    EXPECT_EQ(ids, (std::vector<uint32_t>{1, 2, 3, 4, 5}));
  }
}

}  // namespace
}  // namespace bix
