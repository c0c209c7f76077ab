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

// Streaming reader over WAH words: yields runs of groups.
struct WahRun {
  bool is_fill = false;
  bool ones = false;
  uint32_t literal = 0;
  uint64_t length = 0;  // groups remaining
};

class WahCursor {
 public:
  explicit WahCursor(const WahEncoded& enc) : words_(enc.words) { Advance(); }

  bool done() const { return done_; }
  const WahRun& run() const { return run_; }

  void Consume(uint64_t n) {
    BIX_DCHECK(n <= run_.length);
    run_.length -= n;
    if (run_.length == 0) Advance();
  }

 private:
  void Advance() {
    if (pos_ >= words_.size()) {
      done_ = true;
      run_ = WahRun{};
      return;
    }
    const uint32_t w = words_[pos_++];
    if (w & kFillFlag) {
      run_.is_fill = true;
      run_.ones = (w & kFillOneFlag) != 0;
      run_.length = w & kMaxFillCount;
      if (run_.length == 0) Advance();  // defensive: empty fill
    } else {
      run_.is_fill = false;
      run_.literal = w;
      run_.length = 1;
    }
  }

  const std::vector<uint32_t>& words_;
  size_t pos_ = 0;
  WahRun run_;
  bool done_ = false;
};

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

namespace {

// Shared decode; returns false on malformed input when validating.
bool DecodeImpl(const WahEncoded& enc, Bitvector* out, bool validate) {
  const uint64_t groups = GroupCount(enc.bit_count);
  *out = Bitvector(enc.bit_count);
  uint64_t g = 0;
  WahCursor cursor(enc);
  while (!cursor.done()) {
    const WahRun& run = cursor.run();
    if (g + run.length > groups) {
      if (validate) return false;
      BIX_CHECK_MSG(false, "WAH: too many groups");
    }
    if (run.is_fill) {
      if (run.ones) {
        for (uint64_t i = 0; i < run.length; ++i) {
          // The last group's padding must stay clear.
          const uint64_t base = (g + i) * kGroupBits;
          const uint64_t hi =
              std::min<uint64_t>(base + kGroupBits, enc.bit_count);
          if (validate && hi < base + kGroupBits && g + i + 1 < groups) {
            return false;
          }
          uint32_t mask = kLiteralMask;
          if (hi - base < kGroupBits) {
            mask = (1u << (hi - base)) - 1;
          }
          SetGroup(out, g + i, mask);
        }
      }
    } else {
      SetGroup(out, g, run.literal);
    }
    g += run.length;
    cursor.Consume(run.length);
  }
  if (g != groups) {
    if (validate) return false;
    BIX_CHECK_MSG(false, "WAH: group count mismatch");
  }
  // Validate padding of the final group.
  const uint64_t tail = enc.bit_count % kGroupBits;
  if (validate && tail != 0 && groups > 0) {
    for (uint64_t b = enc.bit_count; b < groups * kGroupBits && b < out->size();
         ++b) {
      if (out->Get(b)) return false;
    }
  }
  return true;
}

}  // namespace

Result<Bitvector> WahDecode(const WahEncoded& enc) {
  // Structural validation first: literal words must not set padding bits of
  // the final group.
  const uint64_t tail = enc.bit_count % kGroupBits;
  if (tail != 0) {
    // Find the final group's value by a dry scan.
    uint64_t g = 0;
    const uint64_t groups = GroupCount(enc.bit_count);
    WahCursor cursor(enc);
    while (!cursor.done()) {
      const WahRun& run = cursor.run();
      if (g + run.length > groups) return Status::Corruption("WAH: overflow");
      if (g + run.length == groups) {
        const uint32_t mask = ~((1u << tail) - 1) & kLiteralMask;
        if (run.is_fill ? (run.ones && true) : ((run.literal & mask) != 0)) {
          // Fills of ones in the tail are representable (decode masks
          // them), but a literal with padding bits set is corrupt.
          if (!run.is_fill) return Status::Corruption("WAH: padding set");
        }
      }
      g += run.length;
      cursor.Consume(run.length);
    }
    if (g != groups) return Status::Corruption("WAH: group count mismatch");
  }
  Bitvector out;
  if (!DecodeImpl(enc, &out, /*validate=*/true)) {
    return Status::Corruption("malformed WAH stream");
  }
  return out;
}

Bitvector WahDecodeUnchecked(const WahEncoded& enc) {
  Bitvector out;
  DecodeImpl(enc, &out, /*validate=*/false);
  return out;
}

}  // namespace bix
