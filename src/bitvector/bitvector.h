#ifndef BIX_BITVECTOR_BITVECTOR_H_
#define BIX_BITVECTOR_BITVECTOR_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace bix {

// Global copy accounting for the zero-copy evaluation pipeline: every copy
// construction/assignment of a Bitvector bumps these counters (relaxed
// atomics — one add per copy, noise next to the memcpy it measures). The
// tripwire tests pin the evaluator's copy count so an accidental by-value
// fetch cannot silently return, and bench/micro_query reports bytes copied
// per query from the same counters.
class BitvectorCopyStats {
 public:
  // Number of copy constructions/assignments since Reset().
  static uint64_t copies();
  // Total payload bytes those copies transferred.
  static uint64_t bytes();
  static void Reset();

 private:
  friend class Bitvector;
  static void Record(uint64_t byte_count);
  static std::atomic<uint64_t> copies_;
  static std::atomic<uint64_t> bytes_;
};

// An uncompressed (verbatim) bitmap over the records of a relation: bit i
// corresponds to record i (paper, Section 1). Storage is a dense array of
// 64-bit words; bits past `size()` in the last word are kept zero so that
// popcounts and equality can operate word-wise.
//
// All bulk logical operations are in-place (`AndWith` etc.) so the query
// evaluator can reuse intermediate-result buffers; value-returning wrappers
// (`And` etc.) exist for convenience in tests and examples.
class Bitvector {
 public:
  Bitvector() = default;
  // Creates a bitmap of `size` bits, all zero.
  explicit Bitvector(uint64_t size) : size_(size), words_(WordCount(size)) {}

  // Copies are counted (see BitvectorCopyStats); moves are free.
  Bitvector(const Bitvector& o) : size_(o.size_), words_(o.words_) {
    BitvectorCopyStats::Record(o.byte_size());
  }
  Bitvector& operator=(const Bitvector& o) {
    if (this != &o) {
      size_ = o.size_;
      words_ = o.words_;
      BitvectorCopyStats::Record(o.byte_size());
    }
    return *this;
  }
  Bitvector(Bitvector&&) = default;
  Bitvector& operator=(Bitvector&&) = default;

  // Builds a bitmap with exactly the given bit positions set. Every
  // position must be < size (BIX_CHECK — positions are often data-dependent,
  // so the guard must hold in Release builds too).
  static Bitvector FromPositions(uint64_t size,
                                 const std::vector<uint64_t>& positions);
  // All-ones bitmap of `size` bits.
  static Bitvector AllOnes(uint64_t size);
  // Adopts `words` (exactly WordCount(size) of them, bits past `size`
  // clear) without copying or zero-filling: how a result assembled block by
  // block becomes a bitmap. The inverse of TakeWords().
  static Bitvector FromWords(uint64_t size, std::vector<uint64_t> words);

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Number of bytes of the verbatim representation (what an uncompressed
  // index stores on disk for this bitmap).
  uint64_t byte_size() const { return words_.size() * sizeof(uint64_t); }

  void Set(uint64_t i) {
    BIX_DCHECK(i < size_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }
  void Clear(uint64_t i) {
    BIX_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  bool Get(uint64_t i) const {
    BIX_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  // Number of set bits.
  uint64_t Count() const;

  // Grows or shrinks to `new_size` bits; new bits are zero, truncated bits
  // are discarded (trailing padding stays clear).
  void Resize(uint64_t new_size);

  // In-place logical operations; `other` must have the same size.
  void AndWith(const Bitvector& other);
  void OrWith(const Bitvector& other);
  void XorWith(const Bitvector& other);
  // this &= ~other (one pass; the naive spelling Not + And costs two).
  void AndNotWith(const Bitvector& other);
  // In-place complement; trailing bits beyond size() stay zero.
  void NotSelf();

  // Value-returning counterparts.
  static Bitvector And(const Bitvector& a, const Bitvector& b);
  static Bitvector Or(const Bitvector& a, const Bitvector& b);
  static Bitvector Xor(const Bitvector& a, const Bitvector& b);
  static Bitvector Not(const Bitvector& a);

  // Calls fn(i) for every set bit i in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (uint64_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        uint64_t bit = static_cast<uint64_t>(__builtin_ctzll(word));
        fn((w << 6) + bit);
        word &= word - 1;
      }
    }
  }

  bool operator==(const Bitvector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }
  bool operator!=(const Bitvector& other) const { return !(*this == other); }

  // Raw word access for the compression codec and storage layer.
  const std::vector<uint64_t>& words() const { return words_; }
  std::vector<uint64_t>& mutable_words() { return words_; }
  // Moves the word array out and leaves this bitvector empty (size 0): how
  // a finished result hands its buffer to a serializer without a copy.
  std::vector<uint64_t> TakeWords() && {
    size_ = 0;
    return std::move(words_);
  }

  static uint64_t WordCount(uint64_t bits) { return (bits + 63) / 64; }

 private:
  // Zeroes any bits in the last word at positions >= size_.
  void ClearTrailingBits();

  uint64_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace bix

#endif  // BIX_BITVECTOR_BITVECTOR_H_
