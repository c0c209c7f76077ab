#ifndef BIX_CORE_INDEX_IO_H_
#define BIX_CORE_INDEX_IO_H_

#include <string>

#include "index/bitmap_index.h"
#include "util/status.h"

namespace bix {

// On-disk persistence for bitmap indexes. The file keeps each bitmap in its
// stored form (verbatim bytes, BBC/WAH stream, or Roaring containers), so
// saving and loading neither decompresses nor re-encodes anything.
//
// Format v4 (all integers little-endian):
//   magic "BIXI" | version u32 | encoding u8 | storage_policy u8 |
//   cardinality u32 | row_count u64 | n u32 | base[n] u32 (msb first) |
//   row_order_count u64 | row_order[row_order_count] u32 |
//   bitmap_count u64 | header_crc u32 | bitmap_count x
//     { component u32 | slot u32 | codec u8 | bit_count u64 |
//       byte_len u64 | bytes | record_crc u32 }
// storage_policy is a CodecId (0-3: every bitmap uses that codec) or 4
// (advisor-chosen per bitmap); codec is each bitmap's CodecId tag.
// row_order is the index's new_to_old permutation (src/index/reorder,
// DESIGN.md section 18); count 0 is the identity order and must be a
// bijection of [0, count) with count <= row_count otherwise.
// header_crc is CRC32C over every header byte from the magic through
// bitmap_count; record_crc covers the record's metadata fields and payload
// bytes, so a flip anywhere in the record is caught at load time. The
// loader also stamps each blob with its payload checksum, which the
// storage layer re-verifies on every materialization.
Status SaveIndex(const BitmapIndex& index, const std::string& path);

// Loads a v4 file (any other version is NotSupported). Verifies the header
// and every record checksum and validates the header and the bitmap
// inventory against the configuration; returns a typed
// Corruption/InvalidArgument/NotSupported status on malformed files
// instead of aborting.
Result<BitmapIndex> LoadIndex(const std::string& path);

}  // namespace bix

#endif  // BIX_CORE_INDEX_IO_H_
