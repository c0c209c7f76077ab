#ifndef BIX_COMPRESS_BBC_H_
#define BIX_COMPRESS_BBC_H_

#include <cstdint>
#include <vector>

#include "bitvector/bitvector.h"
#include "util/status.h"

namespace bix {

// Byte-aligned bitmap compression in the style of Antoshenkov's BBC
// (US patent 5,363,098, 1993), the codec the paper's experiments use via
// Oracle8 (Section 7, "Indexes"). This is a clean-room implementation with
// the same structure: the bitmap is viewed as a byte sequence, runs of fill
// bytes (0x00 or 0xFF) are run-length encoded, and irregular bytes are
// stored verbatim ("literals"), all on byte boundaries so decoding never
// shifts across bytes.
//
// Atom layout (one atom = one control byte + optional extension + literals):
//
//   control byte:  F LLLL TTT
//     F    (bit 7)   fill bit value of the run (0 => 0x00 bytes, 1 => 0xFF)
//     LLLL (bits 6-3) fill run length in bytes, 0..14; the value 15 flags an
//                     extended run: an unsigned LEB128 varint follows the
//                     control byte holding the actual length (>= 15)
//     TTT  (bits 2-0) number of literal bytes following, 0..7
//
// Atoms repeat until all CeilDiv(bit_count, 8) bytes are covered. A run of
// identical fill bytes must be at least 2 bytes long to be encoded as a fill
// (a single fill byte is cheaper as a literal); literals are batched up to 7
// per atom.
//
// The codec is lossless for any bitmap, compresses sparse (and dense)
// bitmaps to O(runs) bytes, and degrades to ~9/8 of the verbatim size on
// incompressible input — matching the behaviour the paper reports for
// interval-encoded bitmaps, which have few long runs.

struct BbcEncoded {
  uint64_t bit_count = 0;
  std::vector<uint8_t> data;

  uint64_t byte_size() const { return data.size(); }
};

// Compresses a bitmap. Never fails.
BbcEncoded BbcEncode(const Bitvector& bv);

// Decompresses. Returns Corruption if `enc.data` is not a well-formed atom
// stream covering exactly CeilDiv(bit_count, 8) bytes. Never reads out of
// bounds or over-allocates on malformed input, so it is safe on
// data-dependent (stored/network) bytes.
Result<Bitvector> BbcDecode(const BbcEncoded& enc);
// Same, borrowing the byte stream (the storage layer's blob bytes).
Result<Bitvector> BbcDecode(const std::vector<uint8_t>& data,
                            uint64_t bit_count);

}  // namespace bix

#endif  // BIX_COMPRESS_BBC_H_
