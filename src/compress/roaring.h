#ifndef BIX_COMPRESS_ROARING_H_
#define BIX_COMPRESS_ROARING_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "bitvector/bitvector.h"
#include "util/status.h"

namespace bix {

// Tripwire accounting for the read-in-place contract: every *full*
// expansion of a Roaring bitmap into a plain Bitvector (ToBitvector, and
// the codec paths built on it) bumps `full_decodes`. Reading blocks
// through a BlockReader does not count — that is the whole point. Tests
// Reset() the counter, run a warmed cache-hit query, and assert it stayed
// zero.
class RoaringStats {
 public:
  static uint64_t full_decodes() {
    return full_decodes_.load(std::memory_order_relaxed);
  }
  static void Reset() { full_decodes_.store(0, std::memory_order_relaxed); }

 private:
  friend class RoaringBitmap;
  static std::atomic<uint64_t> full_decodes_;
};

// A Roaring-style compressed bitmap ("Better bitmap performance with
// Roaring bitmaps", Chambi et al.): the bit space is split into 2^16-bit
// chunks, and each nonempty chunk is stored as whichever container is
// smallest for its contents:
//   - array:  sorted uint16 values (sparse chunks, <= 4096 values),
//   - bitset: 1024 x 64-bit words (dense chunks),
//   - run:    sorted [start, start+length] intervals (clustered chunks).
// Evaluation never expands the whole bitmap: a BlockReader hands out its
// plain words one block at a time, reading bitset containers in place.
class RoaringBitmap {
 public:
  static constexpr uint32_t kChunkBits = 1u << 16;
  static constexpr uint32_t kChunkWords = kChunkBits / 64;
  // Above this cardinality a bitset container (8 KiB) is smaller than the
  // sorted-array form (2 bytes/value) — the standard Roaring cutoff.
  static constexpr uint32_t kArrayCutoff = 4096;

  enum class ContainerType : uint8_t { kArray = 0, kBitset = 1, kRun = 2 };

  // A run of consecutive set bits [start, start + length] (inclusive), so
  // a full chunk is the single run {0, 65535}.
  struct Run {
    uint16_t start = 0;
    uint16_t length = 0;
  };

  struct Container {
    uint32_t key = 0;  // chunk index: bits [key*2^16, (key+1)*2^16)
    ContainerType type = ContainerType::kArray;
    uint32_t cardinality = 0;
    std::vector<uint16_t> array;   // kArray: sorted distinct values
    std::vector<uint64_t> words;   // kBitset: exactly kChunkWords words
    std::vector<Run> runs;         // kRun: sorted, non-overlapping,
                                   // non-adjacent
  };

  RoaringBitmap() = default;

  // Run-aware encoding: one pass over the words computes each chunk's
  // cardinality and run count, then builds the smallest container form.
  static RoaringBitmap FromBitvector(const Bitvector& bv);

  // Full decode into a plain bitmap. Counted by RoaringStats — callers on
  // the evaluation path read blocks through a BlockReader instead.
  Bitvector ToBitvector() const;

  // Sequential reader of the plain form, one block of words at a time —
  // how the evaluator consumes a Roaring leaf without a full decode. Each
  // block must lie within one chunk, and successive blocks must move
  // forward through the bitmap.
  class BlockReader {
   public:
    BlockReader() = default;
    explicit BlockReader(const RoaringBitmap* rb) : rb_(rb) {}

    // Words [base, base + len) of the plain form: a bitset container's
    // own words, read in place; an array or run container's bits written
    // into `scratch` (room for len words); or a shared zero block for an
    // absent chunk or a block the container leaves empty.
    const uint64_t* Read(uint64_t base, uint32_t len, uint64_t* scratch);

   private:
    const RoaringBitmap* rb_ = nullptr;
    size_t container_ = 0;  // first container not behind the last block
    size_t pos_ = 0;        // its first array value or run not behind it
  };

  uint64_t bit_count() const { return bit_count_; }
  // Popcount from container cardinalities — no expansion.
  uint64_t Count() const;
  // Exact size of Serialize()'s output.
  uint64_t byte_size() const;
  size_t container_count() const { return containers_.size(); }
  const std::vector<Container>& containers() const { return containers_; }

  // Serialization (the BitmapStore payload format):
  //   u32 container_count, then per container
  //   u32 key | u8 type | u32 cardinality | payload
  // where payload is card x u16 (array), kChunkWords x u64 (bitset), or
  // u32 run_count + run_count x (u16 start, u16 length) (run). All fields
  // little-endian.
  std::vector<uint8_t> Serialize() const;
  // Validating deserialization: structural errors (truncation, unordered
  // keys/values, cardinality mismatches, bits beyond bit_count, trailing
  // garbage) surface as Corruption, never an abort or a broken invariant.
  static Result<RoaringBitmap> Deserialize(const std::vector<uint8_t>& bytes,
                                           uint64_t bit_count);

 private:
  uint64_t bit_count_ = 0;
  // Sorted by key; no empty containers.
  std::vector<Container> containers_;
};

}  // namespace bix

#endif  // BIX_COMPRESS_ROARING_H_
