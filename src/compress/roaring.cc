#include "compress/roaring.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "bitvector/kernels.h"
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

// ORs a container's bits into a zero-initialized (or accumulated) chunk
// word buffer. Doubles as "expand container into words".
void OrIntoWords(const Container& c, uint64_t* w) {
  switch (c.type) {
    case ContainerType::kArray:
      for (uint16_t v : c.array) w[v >> 6] |= uint64_t{1} << (v & 63);
      break;
    case ContainerType::kBitset:
      kernels::Active().or_words(w, c.words.data(), kChunkWords);
      break;
    case ContainerType::kRun:
      for (const Run& r : c.runs) {
        ForRunWords(r.start, static_cast<uint32_t>(r.start) + r.length,
                    [&](uint32_t wi, uint64_t mask) { w[wi] |= mask; });
      }
      break;
  }
}

void XorIntoWords(const Container& c, uint64_t* w) {
  switch (c.type) {
    case ContainerType::kArray:
      for (uint16_t v : c.array) w[v >> 6] ^= uint64_t{1} << (v & 63);
      break;
    case ContainerType::kBitset:
      kernels::Active().xor_words(w, c.words.data(), kChunkWords);
      break;
    case ContainerType::kRun:
      for (const Run& r : c.runs) {
        ForRunWords(r.start, static_cast<uint32_t>(r.start) + r.length,
                    [&](uint32_t wi, uint64_t mask) { w[wi] ^= mask; });
      }
      break;
  }
}

void ClearIntoWords(const Container& c, uint64_t* w) {
  switch (c.type) {
    case ContainerType::kArray:
      for (uint16_t v : c.array) w[v >> 6] &= ~(uint64_t{1} << (v & 63));
      break;
    case ContainerType::kBitset:
      kernels::Active().andnot_words(w, c.words.data(), kChunkWords);
      break;
    case ContainerType::kRun:
      for (const Run& r : c.runs) {
        ForRunWords(r.start, static_cast<uint32_t>(r.start) + r.length,
                    [&](uint32_t wi, uint64_t mask) { w[wi] &= ~mask; });
      }
      break;
  }
}

bool ContainerContains(const Container& c, uint16_t v) {
  switch (c.type) {
    case ContainerType::kArray:
      return std::binary_search(c.array.begin(), c.array.end(), v);
    case ContainerType::kBitset:
      return (c.words[v >> 6] >> (v & 63)) & 1;
    case ContainerType::kRun: {
      // First run starting after v; the candidate is its predecessor.
      auto it = std::upper_bound(
          c.runs.begin(), c.runs.end(), v,
          [](uint16_t x, const Run& r) { return x < r.start; });
      if (it == c.runs.begin()) return false;
      --it;
      return v <= static_cast<uint32_t>(it->start) + it->length;
    }
  }
  return false;
}

Container CanonicalizeFromWords(uint32_t key, const uint64_t* w) {
  uint32_t card = 0;
  uint32_t runs = 0;
  ChunkStats(w, kChunkWords, &card, &runs);
  Container c;
  if (card == 0) {
    c.key = key;
    c.cardinality = 0;
    return c;
  }
  return MakeContainerFromWords(key, w, kChunkWords, card, runs);
}

Container CanonicalizeRuns(uint32_t key, const std::vector<Run>& runs) {
  uint32_t card = 0;
  for (const Run& r : runs) card += static_cast<uint32_t>(r.length) + 1;
  Container c;
  c.key = key;
  c.cardinality = card;
  if (card == 0) return c;
  c.type = ChooseType(card, static_cast<uint32_t>(runs.size()));
  switch (c.type) {
    case ContainerType::kRun:
      c.runs = runs;
      break;
    case ContainerType::kArray:
      c.array.reserve(card);
      for (const Run& r : runs) {
        for (uint32_t v = r.start; v <= static_cast<uint32_t>(r.start) + r.length;
             ++v) {
          c.array.push_back(static_cast<uint16_t>(v));
        }
      }
      break;
    case ContainerType::kBitset:
      c.words.assign(kChunkWords, 0);
      for (const Run& r : runs) {
        ForRunWords(r.start, static_cast<uint32_t>(r.start) + r.length,
                    [&](uint32_t wi, uint64_t mask) { c.words[wi] |= mask; });
      }
      break;
  }
  return c;
}

// Sorted-array intersection via the active kernel tier: the scalar tier
// gallops (binary search per probe, cursor advanced past each hit) when the
// sizes are lopsided and merges otherwise; the vector tiers scan
// SIMD-width windows of the larger array. `out` must be empty.
void IntersectArrays(const std::vector<uint16_t>& a,
                     const std::vector<uint16_t>& b,
                     std::vector<uint16_t>* out) {
  out->resize(std::min(a.size(), b.size()));
  const size_t n = kernels::Active().intersect_u16(
      a.data(), a.size(), b.data(), b.size(), out->data());
  out->resize(n);
}

// Interval intersection of two canonical run lists.
void IntersectRuns(const std::vector<Run>& a, const std::vector<Run>& b,
                   std::vector<Run>* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t a_end = static_cast<uint32_t>(a[i].start) + a[i].length;
    const uint32_t b_end = static_cast<uint32_t>(b[j].start) + b[j].length;
    const uint32_t s = std::max<uint32_t>(a[i].start, b[j].start);
    const uint32_t e = std::min(a_end, b_end);
    if (s <= e) {
      out->push_back(Run{static_cast<uint16_t>(s),
                         static_cast<uint16_t>(e - s)});
    }
    if (a_end <= b_end) {
      ++i;
    } else {
      ++j;
    }
  }
}

// Interval union, merging overlapping/adjacent results back into canonical
// (non-adjacent) form.
void UnionRuns(const std::vector<Run>& a, const std::vector<Run>& b,
               std::vector<Run>* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    Run next;
    if (j >= b.size() || (i < a.size() && a[i].start <= b[j].start)) {
      next = a[i++];
    } else {
      next = b[j++];
    }
    if (!out->empty()) {
      Run& last = out->back();
      const uint32_t last_end = static_cast<uint32_t>(last.start) + last.length;
      if (next.start <= last_end + 1) {
        const uint32_t next_end =
            static_cast<uint32_t>(next.start) + next.length;
        if (next_end > last_end) {
          last.length = static_cast<uint16_t>(next_end - last.start);
        }
        continue;
      }
    }
    out->push_back(next);
  }
}

Container PairAnd(const Container& a, const Container& b) {
  // Symmetric: normalize so a.type <= b.type (array < bitset < run).
  if (a.type > b.type) return PairAnd(b, a);
  Container c;
  c.key = a.key;
  if (a.type == ContainerType::kArray) {
    c.type = ContainerType::kArray;
    if (b.type == ContainerType::kArray) {
      IntersectArrays(a.array, b.array, &c.array);
    } else {
      for (uint16_t v : a.array) {
        if (ContainerContains(b, v)) c.array.push_back(v);
      }
    }
    c.cardinality = static_cast<uint32_t>(c.array.size());
    return c;
  }
  if (a.type == ContainerType::kBitset && b.type == ContainerType::kBitset) {
    uint64_t w[kChunkWords];
    std::memcpy(w, a.words.data(), sizeof(w));
    kernels::Active().and_words(w, b.words.data(), kChunkWords);
    return CanonicalizeFromWords(a.key, w);
  }
  if (a.type == ContainerType::kBitset) {  // bitset & run
    uint64_t w[kChunkWords];
    std::memset(w, 0, sizeof(w));
    for (const Run& r : b.runs) {
      ForRunWords(r.start, static_cast<uint32_t>(r.start) + r.length,
                  [&](uint32_t wi, uint64_t mask) {
                    w[wi] |= a.words[wi] & mask;
                  });
    }
    return CanonicalizeFromWords(a.key, w);
  }
  // run & run: pure interval arithmetic.
  std::vector<Run> runs;
  IntersectRuns(a.runs, b.runs, &runs);
  return CanonicalizeRuns(a.key, runs);
}

Container PairOr(const Container& a, const Container& b) {
  if (a.type == ContainerType::kArray && b.type == ContainerType::kArray &&
      a.cardinality + b.cardinality <= kArrayCutoff) {
    Container c;
    c.key = a.key;
    c.type = ContainerType::kArray;
    std::set_union(a.array.begin(), a.array.end(), b.array.begin(),
                   b.array.end(), std::back_inserter(c.array));
    c.cardinality = static_cast<uint32_t>(c.array.size());
    return c;
  }
  if (a.type == ContainerType::kRun && b.type == ContainerType::kRun) {
    std::vector<Run> runs;
    UnionRuns(a.runs, b.runs, &runs);
    return CanonicalizeRuns(a.key, runs);
  }
  uint64_t w[kChunkWords];
  std::memset(w, 0, sizeof(w));
  OrIntoWords(a, w);
  OrIntoWords(b, w);
  return CanonicalizeFromWords(a.key, w);
}

Container PairXor(const Container& a, const Container& b) {
  if (a.type == ContainerType::kArray && b.type == ContainerType::kArray &&
      a.cardinality + b.cardinality <= kArrayCutoff) {
    Container c;
    c.key = a.key;
    c.type = ContainerType::kArray;
    std::set_symmetric_difference(a.array.begin(), a.array.end(),
                                  b.array.begin(), b.array.end(),
                                  std::back_inserter(c.array));
    c.cardinality = static_cast<uint32_t>(c.array.size());
    return c;
  }
  uint64_t w[kChunkWords];
  std::memset(w, 0, sizeof(w));
  OrIntoWords(a, w);
  XorIntoWords(b, w);
  return CanonicalizeFromWords(a.key, w);
}

Container PairAndNot(const Container& a, const Container& b) {
  if (a.type == ContainerType::kArray) {
    Container c;
    c.key = a.key;
    c.type = ContainerType::kArray;
    for (uint16_t v : a.array) {
      if (!ContainerContains(b, v)) c.array.push_back(v);
    }
    c.cardinality = static_cast<uint32_t>(c.array.size());
    return c;
  }
  uint64_t w[kChunkWords];
  std::memset(w, 0, sizeof(w));
  OrIntoWords(a, w);
  ClearIntoWords(b, w);
  return CanonicalizeFromWords(a.key, w);
}

uint64_t PairAndCardinality(const Container& a, const Container& b) {
  if (a.type > b.type) return PairAndCardinality(b, a);
  if (a.type == ContainerType::kArray) {
    if (b.type == ContainerType::kArray) {
      std::vector<uint16_t> out;
      IntersectArrays(a.array, b.array, &out);
      return out.size();
    }
    uint64_t n = 0;
    for (uint16_t v : a.array) n += ContainerContains(b, v) ? 1 : 0;
    return n;
  }
  if (a.type == ContainerType::kBitset && b.type == ContainerType::kBitset) {
    return kernels::Active().and_count(a.words.data(), b.words.data(),
                                       kChunkWords);
  }
  if (a.type == ContainerType::kBitset) {  // bitset & run
    uint64_t n = 0;
    for (const Run& r : b.runs) {
      ForRunWords(r.start, static_cast<uint32_t>(r.start) + r.length,
                  [&](uint32_t wi, uint64_t mask) {
                    n += std::popcount(a.words[wi] & mask);
                  });
    }
    return n;
  }
  std::vector<Run> runs;
  IntersectRuns(a.runs, b.runs, &runs);
  uint64_t n = 0;
  for (const Run& r : runs) n += static_cast<uint64_t>(r.length) + 1;
  return n;
}

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
  Bitvector out;
  WriteInto(&out);
  return out;
}

void RoaringBitmap::WriteInto(Bitvector* out) const {
  *out = Bitvector(bit_count_);
  OrInto(out);
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

RoaringBitmap RoaringBitmap::And(const RoaringBitmap& a,
                                 const RoaringBitmap& b) {
  BIX_CHECK_MSG(a.bit_count_ == b.bit_count_, "roaring AND size mismatch");
  RoaringBitmap out;
  out.bit_count_ = a.bit_count_;
  size_t i = 0;
  size_t j = 0;
  while (i < a.containers_.size() && j < b.containers_.size()) {
    const Container& ca = a.containers_[i];
    const Container& cb = b.containers_[j];
    if (ca.key < cb.key) {
      ++i;
    } else if (cb.key < ca.key) {
      ++j;
    } else {
      Container c = PairAnd(ca, cb);
      if (c.cardinality > 0) out.containers_.push_back(std::move(c));
      ++i;
      ++j;
    }
  }
  return out;
}

RoaringBitmap RoaringBitmap::Or(const RoaringBitmap& a,
                                const RoaringBitmap& b) {
  BIX_CHECK_MSG(a.bit_count_ == b.bit_count_, "roaring OR size mismatch");
  RoaringBitmap out;
  out.bit_count_ = a.bit_count_;
  size_t i = 0;
  size_t j = 0;
  while (i < a.containers_.size() || j < b.containers_.size()) {
    if (j >= b.containers_.size() ||
        (i < a.containers_.size() &&
         a.containers_[i].key < b.containers_[j].key)) {
      out.containers_.push_back(a.containers_[i++]);
    } else if (i >= a.containers_.size() ||
               b.containers_[j].key < a.containers_[i].key) {
      out.containers_.push_back(b.containers_[j++]);
    } else {
      out.containers_.push_back(PairOr(a.containers_[i++], b.containers_[j++]));
    }
  }
  return out;
}

RoaringBitmap RoaringBitmap::Xor(const RoaringBitmap& a,
                                 const RoaringBitmap& b) {
  BIX_CHECK_MSG(a.bit_count_ == b.bit_count_, "roaring XOR size mismatch");
  RoaringBitmap out;
  out.bit_count_ = a.bit_count_;
  size_t i = 0;
  size_t j = 0;
  while (i < a.containers_.size() || j < b.containers_.size()) {
    if (j >= b.containers_.size() ||
        (i < a.containers_.size() &&
         a.containers_[i].key < b.containers_[j].key)) {
      out.containers_.push_back(a.containers_[i++]);
    } else if (i >= a.containers_.size() ||
               b.containers_[j].key < a.containers_[i].key) {
      out.containers_.push_back(b.containers_[j++]);
    } else {
      Container c = PairXor(a.containers_[i++], b.containers_[j++]);
      if (c.cardinality > 0) out.containers_.push_back(std::move(c));
    }
  }
  return out;
}

RoaringBitmap RoaringBitmap::AndNot(const RoaringBitmap& a,
                                    const RoaringBitmap& b) {
  BIX_CHECK_MSG(a.bit_count_ == b.bit_count_, "roaring ANDNOT size mismatch");
  RoaringBitmap out;
  out.bit_count_ = a.bit_count_;
  size_t i = 0;
  size_t j = 0;
  while (i < a.containers_.size()) {
    const Container& ca = a.containers_[i];
    while (j < b.containers_.size() && b.containers_[j].key < ca.key) ++j;
    if (j < b.containers_.size() && b.containers_[j].key == ca.key) {
      Container c = PairAndNot(ca, b.containers_[j]);
      if (c.cardinality > 0) out.containers_.push_back(std::move(c));
    } else {
      out.containers_.push_back(ca);
    }
    ++i;
  }
  return out;
}

uint64_t RoaringBitmap::AndCount(const RoaringBitmap& a,
                                 const RoaringBitmap& b) {
  BIX_CHECK_MSG(a.bit_count_ == b.bit_count_, "roaring AndCount size mismatch");
  uint64_t n = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.containers_.size() && j < b.containers_.size()) {
    const Container& ca = a.containers_[i];
    const Container& cb = b.containers_[j];
    if (ca.key < cb.key) {
      ++i;
    } else if (cb.key < ca.key) {
      ++j;
    } else {
      n += PairAndCardinality(ca, cb);
      ++i;
      ++j;
    }
  }
  return n;
}

uint64_t RoaringBitmap::AndCount(const Bitvector& plain) const {
  BIX_CHECK_MSG(plain.size() == bit_count_, "roaring AndCount size mismatch");
  const std::vector<uint64_t>& w = plain.words();
  uint64_t n = 0;
  for (const Container& c : containers_) {
    const uint64_t off = static_cast<uint64_t>(c.key) * kChunkWords;
    switch (c.type) {
      case ContainerType::kArray:
        for (uint16_t v : c.array) {
          n += (w[off + (v >> 6)] >> (v & 63)) & 1;
        }
        break;
      case ContainerType::kBitset: {
        const uint32_t nw = static_cast<uint32_t>(
            std::min<uint64_t>(kChunkWords, w.size() - off));
        n += kernels::Active().and_count(c.words.data(), w.data() + off, nw);
        break;
      }
      case ContainerType::kRun:
        for (const Run& r : c.runs) {
          ForRunWords(r.start, static_cast<uint32_t>(r.start) + r.length,
                      [&](uint32_t wi, uint64_t mask) {
                        n += std::popcount(w[off + wi] & mask);
                      });
        }
        break;
    }
  }
  return n;
}

void RoaringBitmap::OrInto(Bitvector* acc) const {
  BIX_CHECK_MSG(acc->size() == bit_count_, "roaring OrInto size mismatch");
  std::vector<uint64_t>& w = acc->mutable_words();
  for (const Container& c : containers_) {
    const uint64_t off = static_cast<uint64_t>(c.key) * kChunkWords;
    switch (c.type) {
      case ContainerType::kArray:
        for (uint16_t v : c.array) {
          w[off + (v >> 6)] |= uint64_t{1} << (v & 63);
        }
        break;
      case ContainerType::kBitset: {
        const uint32_t nw = static_cast<uint32_t>(
            std::min<uint64_t>(kChunkWords, w.size() - off));
        kernels::Active().or_words(w.data() + off, c.words.data(), nw);
        break;
      }
      case ContainerType::kRun:
        for (const Run& r : c.runs) {
          ForRunWords(r.start, static_cast<uint32_t>(r.start) + r.length,
                      [&](uint32_t wi, uint64_t mask) { w[off + wi] |= mask; });
        }
        break;
    }
  }
}

void RoaringBitmap::XorInto(Bitvector* acc) const {
  BIX_CHECK_MSG(acc->size() == bit_count_, "roaring XorInto size mismatch");
  std::vector<uint64_t>& w = acc->mutable_words();
  for (const Container& c : containers_) {
    const uint64_t off = static_cast<uint64_t>(c.key) * kChunkWords;
    switch (c.type) {
      case ContainerType::kArray:
        for (uint16_t v : c.array) {
          w[off + (v >> 6)] ^= uint64_t{1} << (v & 63);
        }
        break;
      case ContainerType::kBitset: {
        const uint32_t nw = static_cast<uint32_t>(
            std::min<uint64_t>(kChunkWords, w.size() - off));
        kernels::Active().xor_words(w.data() + off, c.words.data(), nw);
        break;
      }
      case ContainerType::kRun:
        for (const Run& r : c.runs) {
          ForRunWords(r.start, static_cast<uint32_t>(r.start) + r.length,
                      [&](uint32_t wi, uint64_t mask) { w[off + wi] ^= mask; });
        }
        break;
    }
  }
}

void RoaringBitmap::AndInPlace(Bitvector* acc) const {
  BIX_CHECK_MSG(acc->size() == bit_count_, "roaring AndInPlace size mismatch");
  std::vector<uint64_t>& w = acc->mutable_words();
  const uint64_t num_chunks = CeilDiv(bit_count_, kChunkBits);
  size_t ci = 0;
  for (uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
    const uint64_t off = chunk * kChunkWords;
    const uint32_t nw = static_cast<uint32_t>(
        std::min<uint64_t>(kChunkWords, w.size() - off));
    if (ci >= containers_.size() || containers_[ci].key != chunk) {
      std::fill(w.begin() + off, w.begin() + off + nw, 0);
      continue;
    }
    const Container& c = containers_[ci++];
    if (c.type == ContainerType::kBitset) {
      kernels::Active().and_words(w.data() + off, c.words.data(), nw);
      continue;
    }
    // Array/run containers: expand this chunk into a scratch buffer and
    // mask — still chunk-local, never a whole-bitmap decode.
    uint64_t buf[kChunkWords];
    std::memset(buf, 0, static_cast<size_t>(nw) * sizeof(uint64_t));
    OrIntoWords(c, buf);
    kernels::Active().and_words(w.data() + off, buf, nw);
  }
}

void RoaringBitmap::NotInto(Bitvector* out) const {
  *out = Bitvector::AllOnes(bit_count_);
  std::vector<uint64_t>& w = out->mutable_words();
  for (const Container& c : containers_) {
    const uint64_t off = static_cast<uint64_t>(c.key) * kChunkWords;
    switch (c.type) {
      case ContainerType::kArray:
        for (uint16_t v : c.array) {
          w[off + (v >> 6)] &= ~(uint64_t{1} << (v & 63));
        }
        break;
      case ContainerType::kBitset: {
        const uint32_t nw = static_cast<uint32_t>(
            std::min<uint64_t>(kChunkWords, w.size() - off));
        kernels::Active().andnot_words(w.data() + off, c.words.data(), nw);
        break;
      }
      case ContainerType::kRun:
        for (const Run& r : c.runs) {
          ForRunWords(r.start, static_cast<uint32_t>(r.start) + r.length,
                      [&](uint32_t wi, uint64_t mask) { w[off + wi] &= ~mask; });
        }
        break;
    }
  }
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
