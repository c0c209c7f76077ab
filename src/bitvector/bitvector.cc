#include "bitvector/bitvector.h"

#include <algorithm>

#include "bitvector/kernels.h"

namespace bix {

std::atomic<uint64_t> BitvectorCopyStats::copies_{0};
std::atomic<uint64_t> BitvectorCopyStats::bytes_{0};

uint64_t BitvectorCopyStats::copies() {
  return copies_.load(std::memory_order_relaxed);
}

uint64_t BitvectorCopyStats::bytes() {
  return bytes_.load(std::memory_order_relaxed);
}

void BitvectorCopyStats::Reset() {
  copies_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
}

void BitvectorCopyStats::Record(uint64_t byte_count) {
  copies_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(byte_count, std::memory_order_relaxed);
}

Bitvector Bitvector::FromPositions(uint64_t size,
                                   const std::vector<uint64_t>& positions) {
  Bitvector bv(size);
  for (uint64_t p : positions) {
    // Positions are often data-dependent (RID lists, decoded payloads), so
    // the bound must hold in Release builds: Set's BIX_DCHECK compiles away
    // there and an oversized position would write out of bounds.
    BIX_CHECK_MSG(p < size, "FromPositions position out of range");
    bv.Set(p);
  }
  return bv;
}

Bitvector Bitvector::AllOnes(uint64_t size) {
  Bitvector bv(size);
  for (uint64_t& w : bv.words_) w = ~uint64_t{0};
  bv.ClearTrailingBits();
  return bv;
}

Bitvector Bitvector::FromWords(uint64_t size, std::vector<uint64_t> words) {
  BIX_CHECK(words.size() == WordCount(size));
  BIX_CHECK_MSG(size % 64 == 0 || (words.back() >> (size % 64)) == 0,
                "FromWords: bits set past size");
  Bitvector bv;
  bv.size_ = size;
  bv.words_ = std::move(words);
  return bv;
}

void Bitvector::Resize(uint64_t new_size) {
  size_ = new_size;
  words_.resize(WordCount(new_size), 0);
  ClearTrailingBits();
}

uint64_t Bitvector::Count() const {
  return kernels::Active().count(words_.data(), words_.size());
}

void Bitvector::AndWith(const Bitvector& other) {
  BIX_CHECK(size_ == other.size_);
  kernels::Active().and_words(words_.data(), other.words_.data(),
                              words_.size());
}

void Bitvector::OrWith(const Bitvector& other) {
  BIX_CHECK(size_ == other.size_);
  kernels::Active().or_words(words_.data(), other.words_.data(),
                             words_.size());
}

void Bitvector::XorWith(const Bitvector& other) {
  BIX_CHECK(size_ == other.size_);
  kernels::Active().xor_words(words_.data(), other.words_.data(),
                              words_.size());
}

void Bitvector::AndNotWith(const Bitvector& other) {
  BIX_CHECK(size_ == other.size_);
  // other's trailing padding is zero, so ~other has trailing ones — and-ing
  // them in cannot set bits past size_.
  kernels::Active().andnot_words(words_.data(), other.words_.data(),
                                 words_.size());
}

void Bitvector::NotSelf() {
  kernels::Active().not_words(words_.data(), words_.data(), words_.size());
  ClearTrailingBits();
}

Bitvector Bitvector::And(const Bitvector& a, const Bitvector& b) {
  Bitvector r = a;
  r.AndWith(b);
  return r;
}

Bitvector Bitvector::Or(const Bitvector& a, const Bitvector& b) {
  Bitvector r = a;
  r.OrWith(b);
  return r;
}

Bitvector Bitvector::Xor(const Bitvector& a, const Bitvector& b) {
  Bitvector r = a;
  r.XorWith(b);
  return r;
}

Bitvector Bitvector::Not(const Bitvector& a) {
  Bitvector r = a;
  r.NotSelf();
  return r;
}

void Bitvector::ClearTrailingBits() {
  uint64_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

}  // namespace bix
