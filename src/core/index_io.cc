#include "core/index_io.h"

#include <cstring>

#include "index/reorder.h"
#include "util/byte_io.h"
#include "util/crc32c.h"

namespace bix {
namespace {

constexpr char kMagic[4] = {'B', 'I', 'X', 'I'};
constexpr uint32_t kVersionLegacy = 1;       // no checksums
constexpr uint32_t kVersionChecksummed = 2;  // header CRC + per-record CRCs
constexpr uint32_t kVersionCodecTagged = 3;  // + per-bitmap codec tags
constexpr uint32_t kVersionCurrent = 4;      // + row-order section

// The v3 header's storage-policy byte: 0-3 are CodecId values (every blob
// uses that codec), 4 means the advisor chose per bitmap. v1/v2 reuse the
// same slot as the boolean `compressed` byte — CodecId was numbered so
// those files reinterpret in place (0 verbatim, 1 BBC).
constexpr uint8_t kPolicyAuto = 4;

}  // namespace

Status SaveIndexAtVersion(const BitmapIndex& index, const std::string& path,
                          uint32_t version) {
  if (version < kVersionLegacy || version > kVersionCurrent) {
    return Status::NotSupported("unknown index file version to write");
  }
  // Legacy formats have a one-bit codec axis: their `compressed` bytes can
  // say only verbatim or BBC. WAH/Roaring/advisor-chosen indexes need the
  // v3 codec tags.
  if (version < kVersionCodecTagged &&
      index.storage_codec() != StorageCodec::kVerbatim &&
      index.storage_codec() != StorageCodec::kBbc) {
    return Status::NotSupported(
        std::string("index file v") + std::to_string(version) +
        " cannot carry storage codec " +
        StorageCodecName(index.storage_codec()));
  }
  // Only v4 has a slot for the row permutation; silently dropping it would
  // hand back an index whose results no longer map to original RIDs.
  if (version < kVersionCurrent && index.reordered()) {
    return Status::NotSupported(
        std::string("index file v") + std::to_string(version) +
        " cannot carry a row order (reordered index needs v4)");
  }
  const bool checksummed = version >= kVersionChecksummed;
  FileWriter w(path);
  if (!w.is_open()) {
    return Status::InvalidArgument("cannot open file for writing: " + path);
  }
  w.Bytes(kMagic, 4);
  w.Le32(version);
  w.U8(static_cast<uint8_t>(index.encoding_kind()));
  // v3: the storage-policy byte. v1/v2: the boolean `compressed` byte,
  // which is the same value for the two codecs those formats can hold.
  w.U8(static_cast<uint8_t>(index.storage_codec()));
  w.Le32(index.decomposition().cardinality());
  w.Le64(index.row_count());
  const std::vector<uint32_t> bases = index.decomposition().BasesMsbFirst();
  w.Le32(static_cast<uint32_t>(bases.size()));
  w.Le32s(bases.data(), bases.size());
  if (version >= kVersionCurrent) {
    const std::vector<uint32_t>& order = index.row_order();
    w.Le64(order.size());
    w.Le32s(order.data(), order.size());
  }
  w.Le64(index.BitmapCount());
  if (checksummed) w.Le32(w.crc());
  index.store().ForEachBlob(
      [&](const BitmapKey& key, const BitmapStore::Blob& blob) {
        w.ResetCrc();
        w.Le32(key.component);
        w.Le32(key.slot);
        // v3: the per-bitmap codec tag. v1/v2: the boolean `compressed`
        // byte (identical bytes for the codecs those formats allow).
        w.U8(static_cast<uint8_t>(blob.codec));
        w.Le64(blob.bit_count);
        w.Le64(blob.bytes.size());
        w.Bytes(blob.bytes.data(), blob.bytes.size());
        if (checksummed) w.Le32(w.crc());
      });
  if (!w.Close()) {
    return Status::Corruption("short write saving index to " + path);
  }
  return Status::OK();
}

Status SaveIndex(const BitmapIndex& index, const std::string& path) {
  return SaveIndexAtVersion(index, path, kVersionCurrent);
}

Result<BitmapIndex> LoadIndex(const std::string& path, IndexLoadInfo* info) {
  Result<std::vector<uint8_t>> file = ReadFileBytes(path);
  if (!file.ok()) return file.status();
  const std::vector<uint8_t>& bytes = file.value();
  ByteReader r(bytes);
  const uint8_t* magic = r.Take(4);
  if (magic == nullptr || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::Corruption("not a bix index file");
  }
  const uint32_t version = r.Le32();
  if (version < kVersionLegacy || version > kVersionCurrent) {
    return Status::NotSupported("unknown index file version");
  }
  const bool checksummed = version >= kVersionChecksummed;
  const bool codec_tagged = version >= kVersionCodecTagged;
  if (info != nullptr) {
    info->version = version;
    info->checksummed = checksummed;
  }
  const uint8_t encoding_raw = r.U8();
  if (encoding_raw > static_cast<uint8_t>(EncodingKind::kEiStar)) {
    return Status::Corruption("bad encoding kind");
  }
  const EncodingKind encoding = static_cast<EncodingKind>(encoding_raw);
  const uint8_t policy_raw = r.U8();
  StorageCodec storage_codec;
  if (codec_tagged) {
    if (policy_raw > kPolicyAuto) {
      return Status::Corruption("bad storage-policy byte");
    }
    storage_codec = static_cast<StorageCodec>(policy_raw);
  } else {
    // The legacy boolean `compressed` byte: any nonzero value meant BBC.
    storage_codec =
        policy_raw != 0 ? StorageCodec::kBbc : StorageCodec::kVerbatim;
  }
  const uint32_t cardinality = r.Le32();
  const uint64_t row_count = r.Le64();
  const uint32_t n = r.Le32();
  if (!r.ok() || n == 0 || n > 64) {
    return Status::Corruption("bad component count");
  }
  std::vector<uint32_t> bases(n);
  r.Le32s(bases.data(), n);
  std::vector<uint32_t> row_order;
  if (version >= kVersionCurrent) {
    const uint64_t order_count = r.Le64();
    // Bound the allocation by the bytes present before trusting the count.
    if (order_count > row_count || !r.Need(order_count, 4)) {
      return Status::Corruption("bad row-order count");
    }
    row_order.resize(order_count);
    r.Le32s(row_order.data(), order_count);
  }
  const uint64_t bitmap_count = r.Le64();
  // Verify the header checksum before interpreting the header any further:
  // a flipped bit in, say, a base or the cardinality must surface as
  // Corruption, not as whatever Decomposition::Make thinks of the value.
  if (checksummed) {
    const uint32_t computed = Crc32c(bytes.data(), r.offset());
    const uint32_t stored = r.Le32();
    if (!r.ok() || computed != stored) {
      return Status::Corruption("index header checksum mismatch");
    }
  }
  // Interpreting the row order waits until after the CRC check above, like
  // every other header field: a flipped permutation byte is Corruption,
  // not a mysterious non-bijection.
  if (!row_order.empty() && !ValidateRowOrder(row_order)) {
    return Status::Corruption("row order is not a permutation");
  }
  Result<Decomposition> d = Decomposition::Make(cardinality, bases);
  if (!d.ok()) return d.status();
  const uint64_t expected_bitmaps = TotalBitmaps(d.value(), encoding);
  if (!r.ok() || bitmap_count != expected_bitmaps) {
    return Status::Corruption("bitmap inventory mismatch");
  }
  BitmapStore store;
  for (uint64_t i = 0; i < bitmap_count; ++i) {
    const size_t record_start = r.offset();
    BitmapKey key;
    key.component = r.Le32();
    key.slot = r.Le32();
    BitmapStore::Blob blob;
    const uint8_t codec_raw = r.U8();
    if (codec_tagged) {
      Result<CodecId> codec = CodecFromByte(codec_raw);
      if (!codec.ok()) return codec.status();
      blob.codec = codec.value();
      // Under the per-bitmap policy, loaded blobs keep re-running the
      // advisor on Replace, exactly like the store that was saved.
      blob.auto_codec = storage_codec == StorageCodec::kAuto;
    } else {
      blob.codec = codec_raw != 0 ? CodecId::kBbc : CodecId::kVerbatim;
    }
    blob.bit_count = r.Le64();
    const uint64_t len = r.Le64();
    if (!r.ok() || blob.bit_count != row_count) {
      return Status::Corruption("bad bitmap header");
    }
    // Take bounds the payload by the bytes present, before any copy.
    const uint8_t* payload = r.Take(len);
    if (payload == nullptr) {
      return Status::Corruption("truncated bitmap payload");
    }
    blob.bytes.assign(payload, payload + len);
    if (checksummed) {
      const uint32_t computed =
          Crc32c(bytes.data() + record_start, r.offset() - record_start);
      const uint32_t stored = r.Le32();
      if (!r.ok() || computed != stored) {
        return Status::Corruption("bitmap record checksum mismatch");
      }
      // The record checksum just vouched for the payload, so stamp the
      // blob with its payload-only CRC: the storage layer re-verifies it
      // on every materialization, catching in-memory rot too.
      blob.crc32c = Crc32c(blob.bytes.data(), blob.bytes.size());
      blob.crc_valid = true;
    }
    if (store.Contains(key)) {
      return Status::Corruption("duplicate bitmap key in file");
    }
    if (key.component == 0 || key.component > n ||
        key.slot >= GetEncoding(encoding).NumBitmaps(
                        d.value().base(key.component))) {
      return Status::Corruption("bitmap key out of range");
    }
    store.PutBlob(key, std::move(blob));
  }
  BitmapIndex index =
      BitmapIndex::FromParts(std::move(d.value()), encoding, storage_codec,
                             row_count, std::move(store));
  index.SetRowOrder(std::move(row_order));
  return index;
}

}  // namespace bix
