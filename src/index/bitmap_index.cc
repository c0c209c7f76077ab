#include "index/bitmap_index.h"

#include <utility>
#include <vector>

#include "index/reorder.h"

namespace bix {

void BitmapIndex::SetRowOrder(std::vector<uint32_t> new_to_old) {
  if (new_to_old.empty()) {
    row_order_.clear();
    return;
  }
  // <= not ==: an index that grew by appends (writable path) keeps the
  // order of its original prefix; appended rows sit at identity positions.
  BIX_CHECK_MSG(new_to_old.size() <= row_count_,
                "row order larger than the indexed row count");
  BIX_CHECK_MSG(ValidateRowOrder(new_to_old), "row order is not a permutation");
  row_order_ = std::move(new_to_old);
}

const char* StorageCodecName(StorageCodec codec) {
  if (codec == StorageCodec::kAuto) return "auto";
  return CodecName(static_cast<CodecId>(codec));
}

BitmapIndex BitmapIndex::Build(const Column& column, const Decomposition& d,
                               EncodingKind encoding, StorageCodec codec) {
  BIX_CHECK(d.cardinality() == column.cardinality);
  const EncodingScheme& scheme = GetEncoding(encoding);
  BitmapIndex index(d, encoding, codec, column.row_count());

  // Build one component at a time so peak memory is one component's
  // bitmaps, not the whole index.
  for (uint32_t comp = 1; comp <= d.num_components(); ++comp) {
    const uint32_t base = d.base(comp);
    const uint32_t num_slots = scheme.NumBitmaps(base);
    // Precompute the slot list per digit value once; columns are long, the
    // digit domain is small.
    std::vector<std::vector<uint32_t>> slots_by_digit(base);
    for (uint32_t digit = 0; digit < base; ++digit) {
      scheme.SlotsForValue(base, digit, &slots_by_digit[digit]);
    }
    // Divisor turning a value into this component's digit.
    uint64_t divisor = 1;
    for (uint32_t i = 1; i < comp; ++i) divisor *= d.base(i);

    std::vector<Bitvector> bitmaps(num_slots,
                                   Bitvector(column.row_count()));
    for (uint64_t row = 0; row < column.row_count(); ++row) {
      const uint32_t value = column.values[row];
      BIX_DCHECK(value < column.cardinality);
      const uint32_t digit = static_cast<uint32_t>((value / divisor) % base);
      for (uint32_t slot : slots_by_digit[digit]) bitmaps[slot].Set(row);
    }
    for (uint32_t slot = 0; slot < num_slots; ++slot) {
      const BitmapKey key{comp, slot};
      if (codec == StorageCodec::kAuto) {
        index.store_.PutAuto(key, bitmaps[slot]);
      } else {
        index.store_.PutWithCodec(key, bitmaps[slot],
                                  static_cast<CodecId>(codec));
      }
    }
  }
  return index;
}

BitmapIndex BitmapIndex::FromParts(Decomposition d, EncodingKind encoding,
                                   StorageCodec codec, uint64_t row_count,
                                   BitmapStore store) {
  const EncodingScheme& scheme = GetEncoding(encoding);
  uint64_t expected = 0;
  for (uint32_t comp = 1; comp <= d.num_components(); ++comp) {
    const uint32_t slots = scheme.NumBitmaps(d.base(comp));
    for (uint32_t s = 0; s < slots; ++s) {
      BIX_CHECK_MSG(store.Contains({comp, s}), "missing bitmap in store");
    }
    expected += slots;
  }
  BIX_CHECK_MSG(store.BitmapCount() == expected, "extra bitmaps in store");
  BitmapIndex index(std::move(d), encoding, codec, row_count);
  index.store_ = std::move(store);
  return index;
}

}  // namespace bix
