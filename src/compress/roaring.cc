#include "compress/roaring.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/byte_io.h"
#include "util/check.h"
#include "util/math.h"

namespace bix {

std::atomic<uint64_t> RoaringStats::full_decodes_{0};

namespace {

using Container = RoaringBitmap::Container;
using ContainerType = RoaringBitmap::ContainerType;
using Run = RoaringBitmap::Run;

constexpr uint32_t kChunkBits = RoaringBitmap::kChunkBits;
constexpr uint32_t kChunkWords = RoaringBitmap::kChunkWords;
constexpr uint32_t kArrayCutoff = RoaringBitmap::kArrayCutoff;

// Word mask with bits [lo, hi] (inclusive, 0 <= lo <= hi <= 63) set.
uint64_t MaskBetween(uint32_t lo, uint32_t hi) {
  const uint64_t upto = hi == 63 ? ~uint64_t{0} : ((uint64_t{1} << (hi + 1)) - 1);
  return upto & (~uint64_t{0} << lo);
}

// Applies fn(word_index, mask) for every word the inclusive bit range
// [start, end] of a chunk touches — the word-granular view of a run.
template <typename Fn>
void ForRunWords(uint32_t start, uint32_t end, Fn&& fn) {
  const uint32_t ws = start >> 6;
  const uint32_t we = end >> 6;
  if (ws == we) {
    fn(ws, MaskBetween(start & 63, end & 63));
    return;
  }
  fn(ws, MaskBetween(start & 63, 63));
  for (uint32_t w = ws + 1; w < we; ++w) fn(w, ~uint64_t{0});
  fn(we, MaskBetween(0, end & 63));
}

// First bit >= from whose value matches `want_set`, or limit if none.
// `w` spans nwords words; limit = nwords * 64.
uint32_t FindNextBit(const uint64_t* w, uint32_t nwords, uint32_t from,
                     bool want_set) {
  const uint32_t limit = nwords * 64;
  if (from >= limit) return limit;
  uint32_t wi = from >> 6;
  uint64_t cur = want_set ? w[wi] : ~w[wi];
  cur &= ~uint64_t{0} << (from & 63);
  while (true) {
    if (cur != 0) {
      const uint32_t bit = wi * 64 + std::countr_zero(cur);
      return bit < limit ? bit : limit;
    }
    if (++wi >= nwords) return limit;
    cur = want_set ? w[wi] : ~w[wi];
  }
}

void ExtractRuns(const uint64_t* w, uint32_t nwords, std::vector<Run>* runs) {
  const uint32_t limit = nwords * 64;
  uint32_t pos = 0;
  while (true) {
    const uint32_t start = FindNextBit(w, nwords, pos, /*want_set=*/true);
    if (start >= limit) break;
    const uint32_t end = FindNextBit(w, nwords, start, /*want_set=*/false);
    runs->push_back(Run{static_cast<uint16_t>(start),
                        static_cast<uint16_t>(end - 1 - start)});
    if (end >= limit) break;
    pos = end;
  }
}

// Serialized payload cost of each container form; the encoder and every
// canonicalizing op pick the cheapest.
ContainerType ChooseType(uint32_t card, uint32_t runs) {
  const uint64_t run_cost = 4ull * runs;
  const uint64_t array_cost =
      card <= kArrayCutoff ? 2ull * card : ~uint64_t{0};
  const uint64_t bitset_cost = 8ull * kChunkWords;
  if (run_cost < array_cost && run_cost < bitset_cost) {
    return ContainerType::kRun;
  }
  return card <= kArrayCutoff ? ContainerType::kArray
                              : ContainerType::kBitset;
}

// Builds the canonical (smallest) container for a chunk given its words.
// `w` holds nwords valid words; bits beyond are absent (treated zero).
Container MakeContainerFromWords(uint32_t key, const uint64_t* w,
                                 uint32_t nwords, uint32_t card,
                                 uint32_t runs) {
  Container c;
  c.key = key;
  c.cardinality = card;
  c.type = ChooseType(card, runs);
  switch (c.type) {
    case ContainerType::kArray:
      c.array.reserve(card);
      for (uint32_t i = 0; i < nwords; ++i) {
        uint64_t x = w[i];
        while (x != 0) {
          c.array.push_back(
              static_cast<uint16_t>(i * 64 + std::countr_zero(x)));
          x &= x - 1;
        }
      }
      break;
    case ContainerType::kBitset:
      c.words.assign(w, w + nwords);
      c.words.resize(kChunkWords, 0);
      break;
    case ContainerType::kRun:
      c.runs.reserve(runs);
      ExtractRuns(w, nwords, &c.runs);
      break;
  }
  return c;
}

// Chunk stats (popcount + number of runs of set bits) in one pass.
void ChunkStats(const uint64_t* w, uint32_t nwords, uint32_t* card,
                uint32_t* runs) {
  *card = 0;
  *runs = 0;
  uint64_t carry = 0;  // previous word's MSB
  for (uint32_t i = 0; i < nwords; ++i) {
    const uint64_t x = w[i];
    *card += static_cast<uint32_t>(std::popcount(x));
    *runs += static_cast<uint32_t>(std::popcount(x & ~((x << 1) | carry)));
    carry = x >> 63;
  }
}

// The plain form of an absent chunk, or of a block its container leaves
// empty.
constexpr uint64_t kZeroChunk[kChunkWords] = {};

Status RoaringCorrupt(const char* what) {
  return Status::Corruption(std::string("roaring stream: ") + what);
}

}  // namespace

RoaringBitmap RoaringBitmap::FromBitvector(const Bitvector& bv) {
  RoaringBitmap rb;
  rb.bit_count_ = bv.size();
  const std::vector<uint64_t>& words = bv.words();
  const uint64_t num_chunks = CeilDiv(bv.size(), kChunkBits);
  for (uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
    const uint64_t off = chunk * kChunkWords;
    const uint32_t nwords = static_cast<uint32_t>(
        std::min<uint64_t>(kChunkWords, words.size() - off));
    uint32_t card = 0;
    uint32_t runs = 0;
    ChunkStats(words.data() + off, nwords, &card, &runs);
    if (card == 0) continue;
    rb.containers_.push_back(MakeContainerFromWords(
        static_cast<uint32_t>(chunk), words.data() + off, nwords, card, runs));
  }
  return rb;
}

Bitvector RoaringBitmap::ToBitvector() const {
  RoaringStats::full_decodes_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t n = Bitvector::WordCount(bit_count_);
  std::vector<uint64_t> words;
  words.reserve(n);
  std::vector<uint64_t> scratch(kChunkWords);
  BlockReader reader(this);
  for (uint64_t base = 0; base < n; base += kChunkWords) {
    const uint32_t len =
        static_cast<uint32_t>(std::min<uint64_t>(kChunkWords, n - base));
    const uint64_t* block = reader.Read(base, len, scratch.data());
    words.insert(words.end(), block, block + len);
  }
  return Bitvector::FromWords(bit_count_, std::move(words));
}

const uint64_t* RoaringBitmap::BlockReader::Read(uint64_t base, uint32_t len,
                                                 uint64_t* scratch) {
  const std::vector<Container>& containers = rb_->containers_;
  const uint64_t chunk = base / kChunkWords;
  while (container_ < containers.size() &&
         containers[container_].key < chunk) {
    ++container_;
    pos_ = 0;
  }
  if (container_ == containers.size() || containers[container_].key != chunk) {
    return kZeroChunk;
  }
  const Container& c = containers[container_];
  const uint32_t first_word = static_cast<uint32_t>(base % kChunkWords);
  BIX_CHECK_MSG(first_word + len <= kChunkWords, "block straddles a chunk");
  if (c.type == ContainerType::kBitset) return c.words.data() + first_word;
  // The block's bits within the chunk: [first, end).
  const uint32_t first = first_word * 64;
  const uint32_t end = first + len * 64;
  // The cursor moves in a local: a store into scratch may alias pos_ (both
  // are 64-bit words), which would send every step through memory.
  size_t pos = pos_;
  if (c.type == ContainerType::kArray) {
    const std::vector<uint16_t>& values = c.array;
    while (pos < values.size() && values[pos] < first) ++pos;
    pos_ = pos;
    if (pos == values.size() || values[pos] >= end) return kZeroChunk;
    std::memset(scratch, 0, static_cast<size_t>(len) * sizeof(uint64_t));
    for (; pos < values.size() && values[pos] < end; ++pos) {
      const uint32_t bit = values[pos] - first;
      scratch[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
    pos_ = pos;
    return scratch;
  }
  const std::vector<Run>& runs = c.runs;
  auto run_end = [&](size_t i) {
    return static_cast<uint32_t>(runs[i].start) + runs[i].length;
  };
  while (pos < runs.size() && run_end(pos) < first) ++pos;
  pos_ = pos;
  if (pos == runs.size() || runs[pos].start >= end) return kZeroChunk;
  std::memset(scratch, 0, static_cast<size_t>(len) * sizeof(uint64_t));
  // A run crossing the block's end stays current for the next block.
  for (size_t i = pos; i < runs.size() && runs[i].start < end; ++i) {
    const uint32_t lo = std::max<uint32_t>(runs[i].start, first) - first;
    const uint32_t hi = std::min(run_end(i), end - 1) - first;
    ForRunWords(lo, hi,
                [&](uint32_t wi, uint64_t mask) { scratch[wi] |= mask; });
  }
  return scratch;
}

uint64_t RoaringBitmap::Count() const {
  uint64_t n = 0;
  for (const Container& c : containers_) n += c.cardinality;
  return n;
}

uint64_t RoaringBitmap::byte_size() const {
  uint64_t n = 4;
  for (const Container& c : containers_) {
    n += 4 + 1 + 4;
    switch (c.type) {
      case ContainerType::kArray:
        n += 2ull * c.array.size();
        break;
      case ContainerType::kBitset:
        n += 8ull * kChunkWords;
        break;
      case ContainerType::kRun:
        n += 4 + 4ull * c.runs.size();
        break;
    }
  }
  return n;
}

std::vector<uint8_t> RoaringBitmap::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(byte_size());
  AppendLe32(&out, static_cast<uint32_t>(containers_.size()));
  for (const Container& c : containers_) {
    AppendLe32(&out, c.key);
    out.push_back(static_cast<uint8_t>(c.type));
    AppendLe32(&out, c.cardinality);
    switch (c.type) {
      case ContainerType::kArray:
        for (uint16_t v : c.array) AppendLe16(&out, v);
        break;
      case ContainerType::kBitset:
        AppendWordsLe(c.words.data(), 8 * c.words.size(), &out);
        break;
      case ContainerType::kRun:
        AppendLe32(&out, static_cast<uint32_t>(c.runs.size()));
        for (const Run& r : c.runs) {
          AppendLe16(&out, r.start);
          AppendLe16(&out, r.length);
        }
        break;
    }
  }
  return out;
}

Result<RoaringBitmap> RoaringBitmap::Deserialize(
    const std::vector<uint8_t>& bytes, uint64_t bit_count) {
  RoaringBitmap rb;
  rb.bit_count_ = bit_count;
  const uint64_t num_chunks = CeilDiv(bit_count, kChunkBits);
  ByteReader r(bytes);
  const uint32_t count = r.Le32();
  if (!r.ok()) return RoaringCorrupt("truncated container count");
  if (count > num_chunks) return RoaringCorrupt("more containers than chunks");
  // Every container header takes 9 bytes.
  if (!r.Need(count, 9)) return RoaringCorrupt("truncated container header");
  rb.containers_.reserve(count);
  int64_t prev_key = -1;
  for (uint32_t n = 0; n < count; ++n) {
    Container c;
    c.key = r.Le32();
    const uint8_t type_raw = r.U8();
    c.cardinality = r.Le32();
    if (!r.ok()) return RoaringCorrupt("truncated container header");
    if (static_cast<int64_t>(c.key) <= prev_key) {
      return RoaringCorrupt("container keys out of order");
    }
    prev_key = c.key;
    if (c.key >= num_chunks) return RoaringCorrupt("container key out of range");
    if (type_raw > static_cast<uint8_t>(ContainerType::kRun)) {
      return RoaringCorrupt("unknown container type");
    }
    c.type = static_cast<ContainerType>(type_raw);
    if (c.cardinality == 0 || c.cardinality > kChunkBits) {
      return RoaringCorrupt("container cardinality out of range");
    }
    // Bits of the final chunk must stay below bit_count.
    const uint64_t chunk_limit =
        std::min<uint64_t>(kChunkBits,
                           bit_count - static_cast<uint64_t>(c.key) * kChunkBits);
    switch (c.type) {
      case ContainerType::kArray: {
        const uint8_t* p = r.Take(2ull * c.cardinality);
        if (p == nullptr) return RoaringCorrupt("truncated array container");
        c.array.resize(c.cardinality);
        int64_t prev = -1;
        for (uint32_t i = 0; i < c.cardinality; ++i) {
          c.array[i] = LoadLe16(p + 2 * i);
          if (c.array[i] <= prev) {
            return RoaringCorrupt("array values out of order");
          }
          prev = c.array[i];
        }
        if (c.array.back() >= chunk_limit) {
          return RoaringCorrupt("array value beyond bit_count");
        }
        break;
      }
      case ContainerType::kBitset: {
        if (!r.Need(kChunkWords, 8)) {
          return RoaringCorrupt("truncated bitset container");
        }
        c.words.resize(kChunkWords);
        r.Le64s(c.words.data(), kChunkWords);
        uint32_t card = 0;
        for (uint64_t w : c.words) {
          card += static_cast<uint32_t>(std::popcount(w));
        }
        if (card != c.cardinality) {
          return RoaringCorrupt("bitset cardinality mismatch");
        }
        // Any bit at or above chunk_limit would break the Bitvector
        // trailing-zero invariant on expansion.
        for (uint64_t bit = chunk_limit; bit < kChunkBits; bit += 64) {
          const uint64_t mask =
              (bit & 63) == 0 ? ~uint64_t{0} : (~uint64_t{0} << (bit & 63));
          if ((c.words[bit >> 6] & mask) != 0) {
            return RoaringCorrupt("bitset bit beyond bit_count");
          }
          if ((bit & 63) != 0) bit &= ~uint64_t{63};  // realign to words
        }
        break;
      }
      case ContainerType::kRun: {
        const uint32_t nruns = r.Le32();
        if (!r.ok()) return RoaringCorrupt("truncated run count");
        if (nruns == 0 || nruns > c.cardinality || !r.Need(nruns, 4)) {
          return RoaringCorrupt("bad run container length");
        }
        const uint8_t* p = r.Take(4ull * nruns);
        c.runs.resize(nruns);
        int64_t prev_end = -2;
        uint64_t card = 0;
        for (uint32_t i = 0; i < nruns; ++i) {
          c.runs[i].start = LoadLe16(p + 4 * i);
          c.runs[i].length = LoadLe16(p + 4 * i + 2);
          const int64_t start = c.runs[i].start;
          const int64_t end = start + c.runs[i].length;
          if (start <= prev_end + 1) {
            return RoaringCorrupt("runs overlap or out of order");
          }
          if (end > 0xFFFF) return RoaringCorrupt("run beyond chunk");
          prev_end = end;
          card += static_cast<uint64_t>(c.runs[i].length) + 1;
        }
        if (card != c.cardinality) {
          return RoaringCorrupt("run cardinality mismatch");
        }
        if (static_cast<uint64_t>(prev_end) >= chunk_limit) {
          return RoaringCorrupt("run beyond bit_count");
        }
        break;
      }
    }
    rb.containers_.push_back(std::move(c));
  }
  if (r.remaining() != 0) return RoaringCorrupt("trailing bytes");
  return rb;
}

}  // namespace bix
