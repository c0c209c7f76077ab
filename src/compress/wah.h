#ifndef BIX_COMPRESS_WAH_H_
#define BIX_COMPRESS_WAH_H_

#include <cstdint>
#include <vector>

#include "bitvector/bitvector.h"
#include "util/status.h"

namespace bix {

// Word-Aligned Hybrid compression (Wu, Otoo & Shoshani), the codec FastBit
// later built on the paper's line of work. Implemented here as a
// comparison point for the BBC codec (`bench/ablation_codecs`): WAH trades
// some compression ratio (31-bit groups instead of 8-bit, no literal
// batching) for branch-light decode.
//
// Word layout (32-bit words over 31-bit logical groups):
//   0 b30..b0                  literal word: 31 payload bits
//   1 0 count(30 bits)         fill of `count` all-zero 31-bit groups
//   1 1 count(30 bits)         fill of `count` all-one  31-bit groups
// The final group is zero-padded; bit_count recovers the logical size.

struct WahEncoded {
  uint64_t bit_count = 0;
  std::vector<uint32_t> words;

  uint64_t byte_size() const { return words.size() * sizeof(uint32_t); }
};

WahEncoded WahEncode(const Bitvector& bv);

// Returns Corruption on malformed input (wrong group count, set padding).
Result<Bitvector> WahDecode(const WahEncoded& enc);

// Hot-path decode; aborts on corrupt input.
Bitvector WahDecodeUnchecked(const WahEncoded& enc);

}  // namespace bix

#endif  // BIX_COMPRESS_WAH_H_
