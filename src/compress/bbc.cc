#include "compress/bbc.h"

#include "compress/bytes.h"
#include "util/math.h"

namespace bix {
namespace {

constexpr uint8_t kFillBitShift = 7;
constexpr uint8_t kFillLenShift = 3;
constexpr uint8_t kFillLenMax = 14;     // 15 flags an extended varint length
constexpr uint8_t kFillLenExtended = 15;
constexpr uint8_t kLiteralMax = 7;
// A run of identical fill bytes shorter than this is cheaper as literals.
constexpr uint64_t kMinFillRun = 2;

bool IsFillByte(uint8_t b) { return b == 0x00 || b == 0xFF; }

void AppendVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

// Returns false on truncated input.
bool ReadVarint(const std::vector<uint8_t>& in, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  uint32_t shift = 0;
  while (*pos < in.size() && shift < 64) {
    uint8_t b = in[(*pos)++];
    result |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

// Length of the run of bytes identical to bytes[pos] starting at pos.
uint64_t RunLength(const std::vector<uint8_t>& bytes, uint64_t pos) {
  const uint8_t b = bytes[pos];
  uint64_t end = pos;
  while (end < bytes.size() && bytes[end] == b) ++end;
  return end - pos;
}

void EmitAtom(std::vector<uint8_t>* out, bool fill_bit, uint64_t fill_len,
              const uint8_t* literals, uint8_t literal_count) {
  uint8_t control = static_cast<uint8_t>((fill_bit ? 1u : 0u) << kFillBitShift);
  control |= literal_count;
  if (fill_len <= kFillLenMax) {
    control |= static_cast<uint8_t>(fill_len) << kFillLenShift;
    out->push_back(control);
  } else {
    control |= static_cast<uint8_t>(kFillLenExtended) << kFillLenShift;
    out->push_back(control);
    AppendVarint(out, fill_len);
  }
  out->insert(out->end(), literals, literals + literal_count);
}

}  // namespace

BbcEncoded BbcEncode(const Bitvector& bv) {
  const std::vector<uint8_t> bytes = BitvectorToBytes(bv);
  BbcEncoded enc;
  enc.bit_count = bv.size();
  enc.data.reserve(bytes.size() / 4 + 8);

  uint64_t pos = 0;
  const uint64_t n = bytes.size();
  while (pos < n) {
    // 1. Greedy fill run (only if long enough to pay for itself).
    bool fill_bit = false;
    uint64_t fill_len = 0;
    if (IsFillByte(bytes[pos])) {
      uint64_t run = RunLength(bytes, pos);
      if (run >= kMinFillRun) {
        fill_bit = bytes[pos] == 0xFF;
        fill_len = run;
        pos += run;
      }
    }
    // 2. Batch literals until the next encodable fill run (or the cap).
    uint8_t literals[kLiteralMax];
    uint8_t literal_count = 0;
    while (pos < n && literal_count < kLiteralMax) {
      if (IsFillByte(bytes[pos]) && RunLength(bytes, pos) >= kMinFillRun) {
        break;
      }
      literals[literal_count++] = bytes[pos++];
    }
    EmitAtom(&enc.data, fill_bit, fill_len, literals, literal_count);
  }
  // A zero-length bitmap still round-trips: no atoms.
  return enc;
}

namespace {

// Expands the atom stream into `bytes`; false on malformed input.
bool DecodeInto(const std::vector<uint8_t>& in, uint64_t bit_count,
                std::vector<uint8_t>* bytes) {
  const uint64_t expected = CeilDiv(bit_count, 8);
  bytes->clear();
  bytes->reserve(expected);
  size_t pos = 0;
  while (pos < in.size()) {
    const uint8_t control = in[pos++];
    const bool fill_bit = (control >> kFillBitShift) & 1;
    uint64_t fill_len = (control >> kFillLenShift) & 0x0F;
    const uint8_t literal_count = control & 0x07;
    if (fill_len == kFillLenExtended && !ReadVarint(in, &pos, &fill_len)) {
      return false;
    }
    // Overflow-safe bound: fill_len comes straight from an untrusted
    // varint and can be near 2^64, so it must never appear on the left of
    // an addition. Checking against the remaining room also caps the
    // allocation below at `expected` bytes total.
    const uint64_t room = expected - bytes->size();
    if (fill_len > room || literal_count > room - fill_len) return false;
    bytes->insert(bytes->end(), fill_len, fill_bit ? 0xFF : 0x00);
    if (pos + literal_count > in.size()) return false;
    bytes->insert(bytes->end(), in.begin() + pos,
                  in.begin() + pos + literal_count);
    pos += literal_count;
  }
  return bytes->size() == expected;
}

}  // namespace

Result<Bitvector> BbcDecode(const BbcEncoded& enc) {
  return BbcDecode(enc.data, enc.bit_count);
}

Result<Bitvector> BbcDecode(const std::vector<uint8_t>& data,
                            uint64_t bit_count) {
  std::vector<uint8_t> bytes;
  if (!DecodeInto(data, bit_count, &bytes)) {
    return Status::Corruption("malformed BBC atom stream");
  }
  // Validate zero padding in the final byte.
  const uint64_t tail_bits = bit_count & 7;
  if (tail_bits != 0 && !bytes.empty() &&
      (bytes.back() & ~((1u << tail_bits) - 1)) != 0) {
    return Status::Corruption("nonzero padding bits in BBC stream");
  }
  return BitvectorFromBytes(bytes, bit_count);
}

}  // namespace bix
