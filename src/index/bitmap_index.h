#ifndef BIX_INDEX_BITMAP_INDEX_H_
#define BIX_INDEX_BITMAP_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "index/column.h"
#include "index/decomposition.h"
#include "storage/bitmap_store.h"

namespace bix {

// How a built index stores its bitmaps: one explicit codec for every
// bitmap, or a per-bitmap advisor pick (kAuto — each bitmap's
// density/run shape chooses between verbatim and Roaring; see
// AdviseCodec). Values 0-3 coincide with CodecId; 4 is the index file's
// storage-policy byte for advisor-chosen indexes.
enum class StorageCodec : uint8_t {
  kVerbatim = 0,
  kBbc = 1,
  kWah = 2,
  kRoaring = 3,
  kAuto = 4,
};
const char* StorageCodecName(StorageCodec codec);

// A multi-component bitmap index: for each component i of the decomposition,
// the chosen encoding scheme's bitmaps over that component's digits, stored
// under a storage codec in a BitmapStore. This is one point of the
// paper's two-dimensional design space (encoding x decomposition,
// Section 2); the codec axis is the third dimension this reproduction
// adds.
class BitmapIndex {
 public:
  // Builds the index in one pass over the column. Aborts on out-of-domain
  // values (callers validate columns).
  static BitmapIndex Build(const Column& column, const Decomposition& d,
                           EncodingKind encoding, StorageCodec codec);
  // The paper's original binary choice (verbatim vs BBC).
  static BitmapIndex Build(const Column& column, const Decomposition& d,
                           EncodingKind encoding, bool compressed) {
    return Build(column, d, encoding,
                 compressed ? StorageCodec::kBbc : StorageCodec::kVerbatim);
  }

  // Reassembles an index from deserialized parts (core/index_io). The
  // store must hold exactly the bitmaps the configuration implies.
  static BitmapIndex FromParts(Decomposition d, EncodingKind encoding,
                               StorageCodec codec, uint64_t row_count,
                               BitmapStore store);

  BitmapIndex(BitmapIndex&&) = default;
  BitmapIndex& operator=(BitmapIndex&&) = default;
  BitmapIndex(const BitmapIndex&) = delete;
  BitmapIndex& operator=(const BitmapIndex&) = delete;

  // Row-reordering preprocessing (src/index/reorder, DESIGN.md section
  // 18): when the index was built over a permuted column, it carries the
  // new_to_old order so results can be mapped back to original RIDs. The
  // empty vector is the identity (unreordered) order. `new_to_old` must be
  // a bijection of [0, new_to_old.size()) with size() <= row_count()
  // (BIX_CHECK); rows appended later take identity positions beyond it.
  void SetRowOrder(std::vector<uint32_t> new_to_old);
  const std::vector<uint32_t>& row_order() const { return row_order_; }
  bool reordered() const { return !row_order_.empty(); }

  const Decomposition& decomposition() const { return decomposition_; }
  EncodingKind encoding_kind() const { return encoding_; }
  const EncodingScheme& encoding() const { return GetEncoding(encoding_); }
  StorageCodec storage_codec() const { return storage_codec_; }
  // The paper's binary view of the codec axis: anything that is not plain
  // verbatim counts as compressed (kAuto indexes hold a per-bitmap mix).
  bool compressed() const { return storage_codec_ != StorageCodec::kVerbatim; }
  uint64_t row_count() const { return row_count_; }

  const BitmapStore& store() const { return store_; }
  // The paper's space metric: total stored bytes of all bitmaps.
  uint64_t TotalStoredBytes() const { return store_.TotalStoredBytes(); }
  uint64_t BitmapCount() const { return store_.BitmapCount(); }

 private:
  BitmapIndex(Decomposition d, EncodingKind encoding, StorageCodec codec,
              uint64_t row_count)
      : decomposition_(std::move(d)),
        encoding_(encoding),
        storage_codec_(codec),
        row_count_(row_count) {}

  Decomposition decomposition_;
  EncodingKind encoding_;
  StorageCodec storage_codec_;
  uint64_t row_count_;
  // new_to_old row permutation; empty = identity (see SetRowOrder).
  std::vector<uint32_t> row_order_;
  BitmapStore store_;
};

}  // namespace bix

#endif  // BIX_INDEX_BITMAP_INDEX_H_
