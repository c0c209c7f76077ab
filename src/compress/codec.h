#ifndef BIX_COMPRESS_CODEC_H_
#define BIX_COMPRESS_CODEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bitvector/bitvector.h"
#include "compress/roaring.h"
#include "util/status.h"

namespace bix {

// Every storage codec a bitmap blob can be encoded with. The numeric
// values are the per-bitmap codec tags of the index file (core/index_io).
enum class CodecId : uint8_t {
  kVerbatim = 0,  // raw bytes, LSB-first per byte (compress/bytes.h)
  kBbc = 1,       // Byte-aligned Bitmap Code (compress/bbc.h)
  kWah = 2,       // Word-Aligned Hybrid (compress/wah.h)
  kRoaring = 3,   // Roaring containers (compress/roaring.h)
};
inline constexpr int kNumCodecs = 4;

const char* CodecName(CodecId id);
// Typed mapping from an untrusted stored byte; Corruption when out of range.
Result<CodecId> CodecFromByte(uint8_t raw);

// A decoded-for-evaluation bitmap handle: either a plain Bitvector or a
// Roaring bitmap still in container form. The cache hands these out so
// Roaring blobs stay compressed end-to-end — the evaluator reads the
// containers block by block and never expands one. Cheap to copy: two
// shared_ptrs, exactly one non-null when valid.
class DecodedBitmap {
 public:
  DecodedBitmap() = default;

  static DecodedBitmap Plain(std::shared_ptr<const Bitvector> bv) {
    DecodedBitmap d;
    d.plain_ = std::move(bv);
    return d;
  }
  static DecodedBitmap Roaring(std::shared_ptr<const RoaringBitmap> rb) {
    DecodedBitmap d;
    d.roaring_ = std::move(rb);
    return d;
  }

  bool valid() const { return plain_ != nullptr || roaring_ != nullptr; }
  bool is_roaring() const { return roaring_ != nullptr; }
  const Bitvector* plain() const { return plain_.get(); }
  const RoaringBitmap* roaring() const { return roaring_.get(); }

  uint64_t bits() const {
    return is_roaring() ? roaring_->bit_count() : plain_->size();
  }
  // Popcount without expansion (container cardinalities for Roaring).
  uint64_t Count() const {
    return is_roaring() ? roaring_->Count() : plain_->Count();
  }
  // Bytes this handle keeps resident: the plain words, or the containers
  // in their serialized size.
  uint64_t resident_bytes() const {
    return is_roaring() ? roaring_->byte_size()
                        : plain_->words().size() * sizeof(uint64_t);
  }

 private:
  std::shared_ptr<const Bitvector> plain_;
  std::shared_ptr<const RoaringBitmap> roaring_;
};

// One storage codec behind a uniform encode/decode/size API. Stateless;
// GetCodec returns process-lifetime singletons.
class CodecInterface {
 public:
  virtual ~CodecInterface() = default;

  virtual CodecId id() const = 0;
  const char* name() const { return CodecName(id()); }

  // Encodes the bitmap into this codec's byte stream (the BitmapStore blob
  // payload).
  virtual std::vector<uint8_t> Encode(const Bitvector& bv) const = 0;

  // Validating full decode, the only one a codec has: structural errors in
  // untrusted bytes surface as Corruption. For Roaring this expands
  // containers (counted by RoaringStats) — the cache path uses
  // DecodeResident instead.
  virtual Result<Bitvector> Decode(const std::vector<uint8_t>& bytes,
                                   uint64_t bit_count) const = 0;

  // Validating decode into the form evaluation consumes: plain codecs
  // fully decode; Roaring deserializes to container form without
  // expanding, so cache-resident Roaring bitmaps never pay a full decode.
  virtual Result<DecodedBitmap> DecodeResident(
      const std::vector<uint8_t>& bytes, uint64_t bit_count) const;
};

const CodecInterface& GetCodec(CodecId id);

// The density/run shape of a bitmap, the advisor's input. `runs` counts
// maximal runs of set bits.
struct BitmapShape {
  uint64_t bit_count = 0;
  uint64_t set_bits = 0;
  uint64_t runs = 0;

  double density() const {
    return bit_count == 0 ? 0.0
                          : static_cast<double>(set_bits) /
                                static_cast<double>(bit_count);
  }
  double avg_run_length() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(set_bits) /
                           static_cast<double>(runs);
  }
};
BitmapShape AnalyzeBitmap(const Bitvector& bv);

// The storage advisor (DESIGN.md section 14) picks between verbatim
// (incompressible mid-density noise: every codec breaks even on space and
// the plain kernels are fastest) and Roaring (sparse or clustered
// bitmaps: containers are smaller *and* operate compressed). BBC/WAH stay
// explicit choices — they exist to reproduce the paper's space-time
// points, not to win the advisor.
CodecId AdviseCodec(const BitmapShape& shape);

}  // namespace bix

#endif  // BIX_COMPRESS_CODEC_H_
