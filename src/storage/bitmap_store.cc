#include "storage/bitmap_store.h"

#include <string>

#include "util/crc32c.h"
#include "util/math.h"

namespace bix {
namespace {

void StampCrc(BitmapStore::Blob* blob) {
  blob->crc32c = Crc32c(blob->bytes.data(), blob->bytes.size());
}

Status CheckBlobCrc(const BitmapStore::Blob& blob) {
  if (Crc32c(blob.bytes.data(), blob.bytes.size()) != blob.crc32c) {
    return Status::Corruption("bitmap blob checksum mismatch");
  }
  return Status::OK();
}

std::string KeyString(BitmapKey key) {
  return "component=" + std::to_string(key.component) +
         " slot=" + std::to_string(key.slot);
}

BitmapStore::Blob EncodeBlob(const Bitvector& bv, CodecId codec) {
  BitmapStore::Blob blob;
  blob.codec = codec;
  blob.bit_count = bv.size();
  blob.bytes = GetCodec(codec).Encode(bv);
  StampCrc(&blob);
  return blob;
}

}  // namespace

void BitmapStore::PutWithCodec(BitmapKey key, const Bitvector& bv,
                               CodecId codec) {
  PutBlob(key, EncodeBlob(bv, codec));
}

CodecId BitmapStore::PutAuto(BitmapKey key, const Bitvector& bv) {
  const CodecId codec = AdviseCodec(AnalyzeBitmap(bv));
  PutWithCodec(key, bv, codec);
  return codec;
}

uint64_t BitmapStore::StoredBytes(BitmapKey key) const {
  return GetBlob(key).bytes.size();
}

void BitmapStore::PutBlob(BitmapKey key, Blob blob) {
  BIX_CHECK_MSG(!Contains(key), "duplicate bitmap key");
  // The blob's own crc32c is preserved as given: the index loader stamps
  // each payload's checksum, and tests keep a stale one to model rot.
  total_bytes_ += blob.bytes.size();
  blobs_.emplace(key, std::move(blob));
}

const BitmapStore::Blob& BitmapStore::GetBlob(BitmapKey key) const {
  auto it = blobs_.find(key);
  BIX_CHECK_MSG(it != blobs_.end(), "unknown bitmap key");
  return it->second;
}

Result<const BitmapStore::Blob*> BitmapStore::TryGetBlob(BitmapKey key) const {
  auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    return Status::InvalidArgument("unknown bitmap key (" + KeyString(key) +
                                   ")");
  }
  return &it->second;
}

Result<Bitvector> BitmapStore::TryMaterialize(BitmapKey key) const {
  Result<const Blob*> blob_r = TryGetBlob(key);
  if (!blob_r.ok()) return blob_r.status();
  const Blob& blob = *blob_r.value();
  Status crc = CheckBlobCrc(blob);
  if (!crc.ok()) return crc;
  return GetCodec(blob.codec).Decode(blob.bytes, blob.bit_count);
}

Bitvector BitmapStore::Materialize(BitmapKey key) const {
  return TryMaterialize(key).value();
}

Result<DecodedBitmap> TryMaterializeBlobResident(
    const BitmapStore::Blob& blob) {
  Status crc = CheckBlobCrc(blob);
  if (!crc.ok()) return crc;
  return GetCodec(blob.codec).DecodeResident(blob.bytes, blob.bit_count);
}

}  // namespace bix
