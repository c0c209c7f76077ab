#ifndef BIX_COMPRESS_BYTES_H_
#define BIX_COMPRESS_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitvector/bitvector.h"

namespace bix {

// Byte-level (de)serialization of verbatim bitmaps. Byte j of the serialized
// form holds bits [8j, 8j+8) of the bitmap, least-significant bit first;
// the final byte is zero-padded. This is the on-"disk" format for
// uncompressed indexes and the input alphabet of the BBC codec.

std::vector<uint8_t> BitvectorToBytes(const Bitvector& bv);

// `bit_count` is the logical size; `bytes.size()` must equal
// CeilDiv(bit_count, 8) and padding bits must be zero.
Bitvector BitvectorFromBytes(const std::vector<uint8_t>& bytes,
                             uint64_t bit_count);

// The little-endian byte image of a 64-bit word array — the layout every
// serialized bitmap uses (above, and the result words of a wire response).
// One memcpy on little-endian hosts, a byte swap per word elsewhere.
//
// AppendWordsLe appends the first `n_bytes` bytes of the image of `words`
// (which holds at least CeilDiv(n_bytes, 8) words) to `out` in one pass:
// the bytes are written once, never zero-filled first.
void AppendWordsLe(const uint64_t* words, size_t n_bytes,
                   std::vector<uint8_t>* out);
// LoadWordsLe overwrites words[0, CeilDiv(n_bytes, 8)) with the image in
// `in`; a partial last word gets zero high bytes.
void LoadWordsLe(const uint8_t* in, size_t n_bytes, uint64_t* words);

}  // namespace bix

#endif  // BIX_COMPRESS_BYTES_H_
