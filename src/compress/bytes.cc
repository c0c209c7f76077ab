#include "compress/bytes.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/math.h"

namespace bix {

void AppendWordsLe(const uint64_t* words, size_t n_bytes,
                   std::vector<uint8_t>* out) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto* image = reinterpret_cast<const uint8_t*>(words);
    out->insert(out->end(), image, image + n_bytes);
  } else {
    for (size_t j = 0; j < n_bytes; j += 8) {
      const uint64_t w = __builtin_bswap64(words[j / 8]);
      const auto* image = reinterpret_cast<const uint8_t*>(&w);
      out->insert(out->end(), image, image + std::min<size_t>(8, n_bytes - j));
    }
  }
}

void LoadWordsLe(const uint8_t* in, size_t n_bytes, uint64_t* words) {
  const size_t full = n_bytes / 8;
  if (n_bytes % 8 != 0) words[full] = 0;
  if constexpr (std::endian::native == std::endian::little) {
    if (n_bytes > 0) std::memcpy(words, in, n_bytes);
  } else {
    for (size_t i = 0; i < full; ++i) {
      uint64_t w;
      std::memcpy(&w, in + 8 * i, sizeof(w));
      words[i] = __builtin_bswap64(w);
    }
    for (size_t j = 8 * full; j < n_bytes; ++j) {
      words[full] |= static_cast<uint64_t>(in[j]) << ((j & 7) * 8);
    }
  }
}

std::vector<uint8_t> BitvectorToBytes(const Bitvector& bv) {
  const size_t n_bytes = CeilDiv(bv.size(), 8);
  std::vector<uint8_t> out;
  out.reserve(n_bytes);
  AppendWordsLe(bv.words().data(), n_bytes, &out);
  return out;
}

Bitvector BitvectorFromBytes(const std::vector<uint8_t>& bytes,
                             uint64_t bit_count) {
  BIX_CHECK(bytes.size() == CeilDiv(bit_count, 8));
  Bitvector bv(bit_count);
  LoadWordsLe(bytes.data(), bytes.size(), bv.mutable_words().data());
  return bv;
}

}  // namespace bix
