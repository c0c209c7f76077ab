#include "compress/bytes.h"

#include "util/byte_io.h"
#include "util/math.h"

namespace bix {

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
