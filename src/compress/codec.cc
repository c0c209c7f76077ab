#include "compress/codec.h"

#include <bit>

#include "compress/bbc.h"
#include "compress/bytes.h"
#include "compress/wah.h"
#include "util/byte_io.h"
#include "util/math.h"

namespace bix {

const char* CodecName(CodecId id) {
  switch (id) {
    case CodecId::kVerbatim:
      return "verbatim";
    case CodecId::kBbc:
      return "bbc";
    case CodecId::kWah:
      return "wah";
    case CodecId::kRoaring:
      return "roaring";
  }
  return "unknown";
}

Result<CodecId> CodecFromByte(uint8_t raw) {
  if (raw >= kNumCodecs) {
    return Status::Corruption("unknown bitmap codec tag " +
                              std::to_string(raw));
  }
  return static_cast<CodecId>(raw);
}

std::shared_ptr<const Bitvector> DecodedBitmap::MaterializePlain() const {
  if (!is_roaring()) return plain_;
  return std::make_shared<const Bitvector>(roaring_->ToBitvector());
}

Result<DecodedBitmap> CodecInterface::DecodeResident(
    const std::vector<uint8_t>& bytes, uint64_t bit_count) const {
  Result<Bitvector> decoded = Decode(bytes, bit_count);
  if (!decoded.ok()) return decoded.status();
  return DecodedBitmap::Plain(
      std::make_shared<const Bitvector>(std::move(decoded).value()));
}

namespace {

class VerbatimCodec final : public CodecInterface {
 public:
  CodecId id() const override { return CodecId::kVerbatim; }

  std::vector<uint8_t> Encode(const Bitvector& bv) const override {
    return BitvectorToBytes(bv);
  }

  // Structural validation mirrors what the compressed decoders enforce
  // (exact byte count, clear padding bits), so an unchecksummed legacy
  // blob still cannot abort or break Bitvector invariants.
  Result<Bitvector> Decode(const std::vector<uint8_t>& bytes,
                           uint64_t bit_count) const override {
    if (bytes.size() != CeilDiv(bit_count, 8)) {
      return Status::Corruption("verbatim bitmap byte count mismatch");
    }
    const uint64_t tail_bits = bit_count & 7;
    if (tail_bits != 0 && !bytes.empty() &&
        (bytes.back() & ~((1u << tail_bits) - 1)) != 0) {
      return Status::Corruption("nonzero padding bits in verbatim bitmap");
    }
    return BitvectorFromBytes(bytes, bit_count);
  }

  Bitvector DecodeUnchecked(const std::vector<uint8_t>& bytes,
                            uint64_t bit_count) const override {
    return BitvectorFromBytes(bytes, bit_count);
  }
};

class BbcCodec final : public CodecInterface {
 public:
  CodecId id() const override { return CodecId::kBbc; }

  std::vector<uint8_t> Encode(const Bitvector& bv) const override {
    return BbcEncode(bv).data;
  }

  Result<Bitvector> Decode(const std::vector<uint8_t>& bytes,
                           uint64_t bit_count) const override {
    return BbcDecode(bytes, bit_count);
  }

  Bitvector DecodeUnchecked(const std::vector<uint8_t>& bytes,
                            uint64_t bit_count) const override {
    return BbcDecodeUnchecked(bytes, bit_count);
  }
};

class WahCodec final : public CodecInterface {
 public:
  CodecId id() const override { return CodecId::kWah; }

  // WAH streams are 32-bit words; the blob payload is their little-endian
  // byte image.
  std::vector<uint8_t> Encode(const Bitvector& bv) const override {
    const WahEncoded enc = WahEncode(bv);
    std::vector<uint8_t> bytes;
    bytes.reserve(4 * enc.words.size());
    AppendWords32Le(enc.words.data(), enc.words.size(), &bytes);
    return bytes;
  }

  Result<Bitvector> Decode(const std::vector<uint8_t>& bytes,
                           uint64_t bit_count) const override {
    Result<WahEncoded> enc = Unpack(bytes, bit_count);
    if (!enc.ok()) return enc.status();
    return WahDecode(enc.value());
  }

 private:
  static Result<WahEncoded> Unpack(const std::vector<uint8_t>& bytes,
                                   uint64_t bit_count) {
    if (bytes.size() % 4 != 0) {
      return Status::Corruption("WAH stream length not word-aligned");
    }
    WahEncoded enc;
    enc.bit_count = bit_count;
    enc.words.resize(bytes.size() / 4);
    LoadWords32Le(bytes.data(), enc.words.size(), enc.words.data());
    return enc;
  }
};

class RoaringCodec final : public CodecInterface {
 public:
  CodecId id() const override { return CodecId::kRoaring; }

  std::vector<uint8_t> Encode(const Bitvector& bv) const override {
    return RoaringBitmap::FromBitvector(bv).Serialize();
  }

  Result<Bitvector> Decode(const std::vector<uint8_t>& bytes,
                           uint64_t bit_count) const override {
    Result<RoaringBitmap> rb = RoaringBitmap::Deserialize(bytes, bit_count);
    if (!rb.ok()) return rb.status();
    return rb.value().ToBitvector();
  }

  // Residency keeps container form, which the evaluator reads block by
  // block, so no full decode happens on the fetch path.
  Result<DecodedBitmap> DecodeResident(const std::vector<uint8_t>& bytes,
                                       uint64_t bit_count) const override {
    Result<RoaringBitmap> rb = RoaringBitmap::Deserialize(bytes, bit_count);
    if (!rb.ok()) return rb.status();
    return DecodedBitmap::Roaring(
        std::make_shared<const RoaringBitmap>(std::move(rb).value()));
  }
};

}  // namespace

const CodecInterface& GetCodec(CodecId id) {
  static const VerbatimCodec verbatim;
  static const BbcCodec bbc;
  static const WahCodec wah;
  static const RoaringCodec roaring;
  switch (id) {
    case CodecId::kVerbatim:
      return verbatim;
    case CodecId::kBbc:
      return bbc;
    case CodecId::kWah:
      return wah;
    case CodecId::kRoaring:
      return roaring;
  }
  return verbatim;
}

BitmapShape AnalyzeBitmap(const Bitvector& bv) {
  BitmapShape shape;
  shape.bit_count = bv.size();
  const std::vector<uint64_t>& words = bv.words();
  uint64_t carry = 0;  // previous word's MSB
  for (uint64_t x : words) {
    shape.set_bits += std::popcount(x);
    shape.runs += std::popcount(x & ~((x << 1) | carry));
    carry = x >> 63;
  }
  return shape;
}

CodecId AdviseCodec(const BitmapShape& shape,
                    const CodecAdvisorOptions& options) {
  if (shape.bit_count == 0) return CodecId::kVerbatim;
  if (shape.set_bits == 0) return CodecId::kRoaring;  // empty: 4 bytes
  const double d = shape.density();
  const double r = shape.avg_run_length();
  if (d < options.sparse_density) return CodecId::kRoaring;
  if (r >= options.clustered_run_length) return CodecId::kRoaring;
  // Short runs at non-trivial density: effectively incompressible noise.
  // Verbatim is within ~2% of the best size here and its kernels are the
  // fastest, so compression buys nothing.
  if (d >= options.noise_density) return CodecId::kVerbatim;
  return CodecId::kRoaring;
}

}  // namespace bix
