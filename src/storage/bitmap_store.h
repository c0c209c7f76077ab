#ifndef BIX_STORAGE_BITMAP_STORE_H_
#define BIX_STORAGE_BITMAP_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bitvector/bitvector.h"
#include "compress/bbc.h"
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
  // stores it under AdviseCodec's pick. Returns the chosen codec. Blobs
  // stored this way re-run the advisor on Replace (the shape may have
  // changed), where PutWithCodec blobs keep their explicit codec.
  CodecId PutAuto(BitmapKey key, const Bitvector& bv,
                  const CodecAdvisorOptions& options = {});
  // Replaces an existing bitmap. Explicitly-coded blobs keep their codec
  // (index maintenance preserves the storage form); advisor-chosen blobs
  // re-pick, since an append can change the bitmap's shape.
  void Replace(BitmapKey key, const Bitvector& bv);

  bool Contains(BitmapKey key) const { return blobs_.count(key) > 0; }
  uint64_t StoredBytes(BitmapKey key) const;
  // Typed-error variant for data-dependent keys (the serving path):
  // InvalidArgument instead of a BIX_CHECK abort when the key is unknown.
  Result<uint64_t> TryStoredBytes(BitmapKey key) const;
  // Total stored size of the index — the paper's space metric.
  uint64_t TotalStoredBytes() const { return total_bytes_; }
  uint64_t BitmapCount() const { return blobs_.size(); }

  // Materializes the bitmap (decoding if compressed). This is the CPU work
  // charged to a scan; I/O accounting is the buffer pool's job. Aborts on a
  // missing key or corrupt stored bytes — trusted build/bench paths only;
  // the serving path uses TryMaterialize.
  Bitvector Materialize(BitmapKey key) const;
  // Integrity-checked materialization: verifies the blob checksum (when
  // present) and uses the validating decoders, so an unknown key surfaces
  // as InvalidArgument and corrupt stored bytes as Corruption — never an
  // abort on data-dependent input.
  Result<Bitvector> TryMaterialize(BitmapKey key) const;

  // Raw stored payload, for the cache's byte accounting and serialization.
  struct Blob {
    // How `bytes` is encoded; the per-blob tag index_io v3 persists.
    CodecId codec = CodecId::kVerbatim;
    // True when the codec was chosen by the advisor (PutAuto): Replace
    // re-runs the advisor instead of keeping the codec.
    bool auto_codec = false;
    uint64_t bit_count = 0;
    std::vector<uint8_t> bytes;
    // CRC32C of `bytes`, stamped by the Put* paths and verified on every
    // integrity-checked materialization. `crc_valid` is false only for
    // blobs deserialized from a v1 index file (no stored checksums): those
    // decode with structural validation but no integrity guarantee and are
    // flagged "unverified" by the loader.
    uint32_t crc32c = 0;
    bool crc_valid = false;

    bool compressed() const { return codec != CodecId::kVerbatim; }
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

// Integrity-checked decode of one blob (checksum when present, then the
// validating decoder). A free function so callers holding a blob copy —
// e.g. the fault-injected read path, which corrupts a *copy* of the stored
// bytes to model a torn page — run exactly the verification the store
// itself applies in TryMaterialize.
Result<Bitvector> TryMaterializeBlob(const BitmapStore::Blob& blob);

// Same verification, decoding into the form evaluation consumes: plain
// codecs fully decode; Roaring blobs come back in container form (no full
// decode), which is what the caches keep resident.
Result<DecodedBitmap> TryMaterializeBlobResident(const BitmapStore::Blob& blob);

}  // namespace bix

#endif  // BIX_STORAGE_BITMAP_STORE_H_
