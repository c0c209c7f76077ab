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
// loader also stamps each blob with its payload checksum (for every file
// version), which the storage layer re-verifies on every materialization.
//
// Format v3 is v4 without the row-order section (it loads with the
// identity order); v2 is v3 with a boolean `compressed` byte in both codec
// slots (CodecId numbering makes those bytes reinterpret in place: 0
// verbatim, 1 BBC); v1 is v2 without either checksum. All still load —
// legacy blobs come back tagged verbatim or BBC; a v1 load reports
// checksummed == false (nothing on disk vouched for its bytes, which are
// checked from the load on). Saving an index whose codec the legacy formats
// cannot express (WAH, Roaring, auto) as v1/v2 fails NotSupported, as
// does saving a reordered index at v1-v3 (no slot for the permutation).
Status SaveIndex(const BitmapIndex& index, const std::string& path);

// Writes the given format version (1, 2, 3 or 4). SaveIndex writes the
// current version; this exists so tests and migration tooling can produce
// legacy files.
Status SaveIndexAtVersion(const BitmapIndex& index, const std::string& path,
                          uint32_t version);

// What LoadIndex found on disk.
struct IndexLoadInfo {
  uint32_t version = 0;
  // True when the file carried checksums that were verified during the
  // load (v2+); false for legacy v1 files, whose bytes no checksum on disk
  // vouched for.
  bool checksummed = false;
};

// Validates the header and the bitmap inventory against the configuration,
// and for v2 files verifies every checksum; returns a typed
// Corruption/InvalidArgument/NotSupported status on malformed files
// instead of aborting. `info`, when non-null, reports the file version and
// whether it was checksummed.
Result<BitmapIndex> LoadIndex(const std::string& path,
                              IndexLoadInfo* info = nullptr);

}  // namespace bix

#endif  // BIX_CORE_INDEX_IO_H_
