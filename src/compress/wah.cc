#include "compress/wah.h"

#include "util/math.h"

namespace bix {
namespace {

constexpr uint32_t kGroupBits = 31;
constexpr uint32_t kLiteralMask = 0x7FFFFFFFu;  // 31 payload bits
constexpr uint32_t kFillFlag = 0x80000000u;
constexpr uint32_t kFillOneFlag = 0x40000000u;
constexpr uint32_t kMaxFillCount = 0x3FFFFFFFu;

uint64_t GroupCount(uint64_t bits) { return CeilDiv(bits, kGroupBits); }

// Extracts 31-bit group g from the bitmap's word array.
uint32_t GetGroup(const Bitvector& bv, uint64_t g) {
  const uint64_t bit0 = g * kGroupBits;
  const uint64_t word_idx = bit0 >> 6;
  const uint32_t shift = static_cast<uint32_t>(bit0 & 63);
  const std::vector<uint64_t>& words = bv.words();
  uint64_t chunk = words[word_idx] >> shift;
  if (shift > 64 - kGroupBits && word_idx + 1 < words.size()) {
    chunk |= words[word_idx + 1] << (64 - shift);
  }
  return static_cast<uint32_t>(chunk) & kLiteralMask;
}

// Appends a fill word, merging with a preceding fill of the same polarity.
void AppendFill(std::vector<uint32_t>* out, bool ones, uint64_t count) {
  while (count > 0) {
    if (!out->empty()) {
      uint32_t& back = out->back();
      if ((back & kFillFlag) &&
          ((back & kFillOneFlag) != 0) == ones) {
        const uint64_t have = back & kMaxFillCount;
        const uint64_t add =
            std::min<uint64_t>(count, kMaxFillCount - have);
        back = static_cast<uint32_t>(back + add);
        count -= add;
        if (count == 0) return;
      }
    }
    const uint64_t take = std::min<uint64_t>(count, kMaxFillCount);
    out->push_back(kFillFlag | (ones ? kFillOneFlag : 0u) |
                   static_cast<uint32_t>(take));
    count -= take;
  }
}

void AppendGroup(std::vector<uint32_t>* out, uint32_t group) {
  if (group == 0) {
    AppendFill(out, false, 1);
  } else if (group == kLiteralMask) {
    AppendFill(out, true, 1);
  } else {
    out->push_back(group);
  }
}

void SetGroup(Bitvector* bv, uint64_t g, uint32_t group) {
  const uint64_t bit0 = g * kGroupBits;
  const uint64_t word_idx = bit0 >> 6;
  const uint32_t shift = static_cast<uint32_t>(bit0 & 63);
  std::vector<uint64_t>& words = bv->mutable_words();
  words[word_idx] |= static_cast<uint64_t>(group) << shift;
  if (shift > 64 - kGroupBits && word_idx + 1 < words.size()) {
    words[word_idx + 1] |= static_cast<uint64_t>(group) >> (64 - shift);
  }
}

}  // namespace

WahEncoded WahEncode(const Bitvector& bv) {
  WahEncoded enc;
  enc.bit_count = bv.size();
  const uint64_t groups = GroupCount(bv.size());
  enc.words.reserve(groups / 8 + 4);
  for (uint64_t g = 0; g < groups; ++g) {
    AppendGroup(&enc.words, GetGroup(bv, g));
  }
  return enc;
}

Result<Bitvector> WahDecode(const WahEncoded& enc) {
  const uint64_t groups = GroupCount(enc.bit_count);
  // The final group's payload bits; the rest of its 31 bits are padding.
  const uint64_t tail = enc.bit_count % kGroupBits;
  const uint32_t last_mask = tail == 0 ? kLiteralMask : (1u << tail) - 1;
  Bitvector out(enc.bit_count);
  uint64_t g = 0;  // groups decoded so far
  for (const uint32_t w : enc.words) {
    const bool fill = (w & kFillFlag) != 0;
    const uint64_t length = fill ? (w & kMaxFillCount) : 1;
    if (length > groups - g) return Status::Corruption("WAH: too many groups");
    if (!fill) {
      if (g + 1 == groups && (w & ~last_mask) != 0) {
        return Status::Corruption("WAH: padding bits set in final literal");
      }
      SetGroup(&out, g, w);
    } else if ((w & kFillOneFlag) != 0) {
      // A ones-fill may end on the final group; only its payload is set.
      for (uint64_t i = g; i < g + length; ++i) {
        SetGroup(&out, i, i + 1 == groups ? last_mask : kLiteralMask);
      }
    }
    g += length;
  }
  if (g != groups) return Status::Corruption("WAH: group count mismatch");
  return out;
}

}  // namespace bix
