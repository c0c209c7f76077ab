#include "core/index_io.h"

#include <cstring>

#include "index/reorder.h"
#include "util/byte_io.h"
#include "util/crc32c.h"

namespace bix {
namespace {

constexpr char kMagic[4] = {'B', 'I', 'X', 'I'};
// The only version read or written; any other is NotSupported.
constexpr uint32_t kVersion = 4;

// The header's storage-policy byte: 0-3 are CodecId values (every blob
// uses that codec), 4 means the advisor chose per bitmap.
constexpr uint8_t kPolicyAuto = 4;

}  // namespace

Status SaveIndex(const BitmapIndex& index, const std::string& path) {
  FileWriter w(path);
  if (!w.is_open()) {
    return Status::InvalidArgument("cannot open file for writing: " + path);
  }
  w.Bytes(kMagic, 4);
  w.Le32(kVersion);
  w.U8(static_cast<uint8_t>(index.encoding_kind()));
  w.U8(static_cast<uint8_t>(index.storage_codec()));
  w.Le32(index.decomposition().cardinality());
  w.Le64(index.row_count());
  const std::vector<uint32_t> bases = index.decomposition().BasesMsbFirst();
  w.Le32(static_cast<uint32_t>(bases.size()));
  w.Le32s(bases.data(), bases.size());
  const std::vector<uint32_t>& order = index.row_order();
  w.Le64(order.size());
  w.Le32s(order.data(), order.size());
  w.Le64(index.BitmapCount());
  w.Le32(w.crc());
  index.store().ForEachBlob(
      [&](const BitmapKey& key, const BitmapStore::Blob& blob) {
        w.ResetCrc();
        w.Le32(key.component);
        w.Le32(key.slot);
        w.U8(static_cast<uint8_t>(blob.codec));
        w.Le64(blob.bit_count);
        w.Le64(blob.bytes.size());
        w.Bytes(blob.bytes.data(), blob.bytes.size());
        w.Le32(w.crc());
      });
  if (!w.Close()) {
    return Status::Corruption("short write saving index to " + path);
  }
  return Status::OK();
}

Result<BitmapIndex> LoadIndex(const std::string& path) {
  Result<std::vector<uint8_t>> file = ReadFileBytes(path);
  if (!file.ok()) return file.status();
  const std::vector<uint8_t>& bytes = file.value();
  ByteReader r(bytes);
  const uint8_t* magic = r.Take(4);
  if (magic == nullptr || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::Corruption("not a bix index file");
  }
  if (r.Le32() != kVersion) {
    return Status::NotSupported("unsupported index file version");
  }
  const uint8_t encoding_raw = r.U8();
  if (encoding_raw > static_cast<uint8_t>(EncodingKind::kEiStar)) {
    return Status::Corruption("bad encoding kind");
  }
  const EncodingKind encoding = static_cast<EncodingKind>(encoding_raw);
  const uint8_t policy_raw = r.U8();
  if (policy_raw > kPolicyAuto) {
    return Status::Corruption("bad storage-policy byte");
  }
  const StorageCodec storage_codec = static_cast<StorageCodec>(policy_raw);
  const uint32_t cardinality = r.Le32();
  const uint64_t row_count = r.Le64();
  const uint32_t n = r.Le32();
  if (!r.ok() || n == 0 || n > 64) {
    return Status::Corruption("bad component count");
  }
  std::vector<uint32_t> bases(n);
  r.Le32s(bases.data(), n);
  const uint64_t order_count = r.Le64();
  // Bound the allocation by the bytes present before trusting the count.
  if (order_count > row_count || !r.Need(order_count, 4)) {
    return Status::Corruption("bad row-order count");
  }
  std::vector<uint32_t> row_order(order_count);
  r.Le32s(row_order.data(), order_count);
  const uint64_t bitmap_count = r.Le64();
  // Verify the header checksum before interpreting the header any further:
  // a flipped bit in, say, a base or the cardinality must surface as
  // Corruption, not as whatever Decomposition::Make thinks of the value.
  const uint32_t header_crc = Crc32c(bytes.data(), r.offset());
  const uint32_t stored_header_crc = r.Le32();
  if (!r.ok() || header_crc != stored_header_crc) {
    return Status::Corruption("index header checksum mismatch");
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
    Result<CodecId> codec = CodecFromByte(r.U8());
    if (!codec.ok()) return codec.status();
    BitmapStore::Blob blob;
    blob.codec = codec.value();
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
    const uint32_t record_crc =
        Crc32c(bytes.data() + record_start, r.offset() - record_start);
    const uint32_t stored_record_crc = r.Le32();
    if (!r.ok() || record_crc != stored_record_crc) {
      return Status::Corruption("bitmap record checksum mismatch");
    }
    // Stamp the blob with its payload-only CRC, which the record checksum
    // just vouched for: the storage layer re-verifies it on every
    // materialization, so in-memory rot is caught from here on.
    blob.crc32c = Crc32c(blob.bytes.data(), blob.bytes.size());
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
