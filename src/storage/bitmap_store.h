#ifndef BIX_STORAGE_BITMAP_STORE_H_
#define BIX_STORAGE_BITMAP_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bitvector/bitvector.h"
#include "compress/codec.h"
#include "util/rng.h"
#include "util/status.h"

namespace bix {

// Identifies one stored bitmap of a (possibly multi-component) index:
// bitmap `slot` of component `component`. Components are numbered 1..n as
// in the paper (component n is the most significant digit).
struct BitmapKey {
  uint32_t component = 0;
  uint32_t slot = 0;

  bool operator==(const BitmapKey& o) const {
    return component == o.component && slot == o.slot;
  }
  uint64_t Packed() const {
    return (static_cast<uint64_t>(component) << 32) | slot;
  }
};

struct BitmapKeyHash {
  size_t operator()(const BitmapKey& k) const {
    // Packed keys are small and distinct; splitmix finish for spread.
    return static_cast<size_t>(SplitMix64(k.Packed()));
  }
};

// The "disk": an immutable-after-build container of stored bitmaps, each
// encoded with one of the registered codecs (verbatim, BBC, WAH, Roaring)
// and tagged with the codec per blob. It performs no cost accounting
// itself — reads go through the buffer pool (storage/bitmap_cache), which
// models the pool and the disk.
class BitmapStore {
 public:
  BitmapStore() = default;

  BitmapStore(const BitmapStore&) = delete;
  BitmapStore& operator=(const BitmapStore&) = delete;
  BitmapStore(BitmapStore&&) = default;
  BitmapStore& operator=(BitmapStore&&) = default;

  // Stores `bv` encoded with the given codec.
  void PutWithCodec(BitmapKey key, const Bitvector& bv, CodecId codec);
  // Advisor-driven storage: analyzes the bitmap's density/run shape and
  // stores it under AdviseCodec's pick. Returns the chosen codec.
  CodecId PutAuto(BitmapKey key, const Bitvector& bv);

  bool Contains(BitmapKey key) const { return blobs_.count(key) > 0; }
  uint64_t StoredBytes(BitmapKey key) const;
  // Total stored size of the index — the paper's space metric.
  uint64_t TotalStoredBytes() const { return total_bytes_; }
  uint64_t BitmapCount() const { return blobs_.size(); }

  // Integrity-checked materialization: verifies the blob checksum, then
  // runs the codec's validating Decode, so an unknown key surfaces as
  // InvalidArgument and corrupt stored bytes as Corruption — never an
  // abort on data-dependent input.
  Result<Bitvector> TryMaterialize(BitmapKey key) const;
  // TryMaterialize(key).value(): the same verification, but aborts on a
  // missing key or corrupt bytes — trusted build/bench paths only.
  Bitvector Materialize(BitmapKey key) const;

  // Raw stored payload, for the cache's byte accounting and serialization.
  struct Blob {
    // How `bytes` is encoded; the per-blob tag the index file persists.
    CodecId codec = CodecId::kVerbatim;
    uint64_t bit_count = 0;
    std::vector<uint8_t> bytes;
    // CRC32C of `bytes`, stamped by the Put* paths and by the index
    // loader, and verified on every materialization.
    uint32_t crc32c = 0;
  };
  const Blob& GetBlob(BitmapKey key) const;
  // Typed-error lookup: InvalidArgument on a missing key (the returned
  // pointer is owned by the store and valid until the store is mutated).
  Result<const Blob*> TryGetBlob(BitmapKey key) const;
  // Inserts an already-encoded payload verbatim (index deserialization).
  void PutBlob(BitmapKey key, Blob blob);
  // Iteration for serialization.
  template <typename Fn>
  void ForEachBlob(Fn&& fn) const {
    for (const auto& [key, blob] : blobs_) fn(key, blob);
  }

 private:
  std::unordered_map<BitmapKey, Blob, BitmapKeyHash> blobs_;
  uint64_t total_bytes_ = 0;
};

// The verification TryMaterialize applies (checksum, then the validating
// decoder), decoding into the form evaluation consumes: plain codecs fully
// decode; Roaring blobs come back in container form (no full decode),
// which is what the caches keep resident. A free function so callers
// holding a blob copy — e.g. the fault-injected read path, which corrupts
// a *copy* of the stored bytes to model a torn page — run exactly the
// store's own verification.
Result<DecodedBitmap> TryMaterializeBlobResident(const BitmapStore::Blob& blob);

}  // namespace bix

#endif  // BIX_STORAGE_BITMAP_STORE_H_
