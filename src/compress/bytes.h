#ifndef BIX_COMPRESS_BYTES_H_
#define BIX_COMPRESS_BYTES_H_

#include <cstdint>
#include <vector>

#include "bitvector/bitvector.h"

namespace bix {

// Byte-level (de)serialization of verbatim bitmaps. Byte j of the serialized
// form holds bits [8j, 8j+8) of the bitmap, least-significant bit first;
// the final byte is zero-padded: the little-endian image of the word array
// (AppendWordsLe in util/byte_io). This is the on-"disk" format for
// uncompressed indexes and the input alphabet of the BBC codec.

std::vector<uint8_t> BitvectorToBytes(const Bitvector& bv);

// `bit_count` is the logical size; `bytes.size()` must equal
// CeilDiv(bit_count, 8) and padding bits must be zero.
Bitvector BitvectorFromBytes(const std::vector<uint8_t>& bytes,
                             uint64_t bit_count);

}  // namespace bix

#endif  // BIX_COMPRESS_BYTES_H_
