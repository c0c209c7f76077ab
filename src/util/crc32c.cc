#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "util/cpu.h"

namespace bix {
namespace {

// Reflected CRC32C polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

// Slice-by-8 lookup tables: t[0] is the classic byte-at-a-time table,
// t[s][b] extends a byte through s additional zero bytes, letting the main
// loop fold 8 input bytes per iteration with 8 independent loads.
struct Tables {
  uint32_t t[8][256];
};

Tables MakeTables() {
  Tables tb;
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
    }
    tb.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tb.t[0][i];
    for (int s = 1; s < 8; ++s) {
      c = tb.t[0][c & 0xFF] ^ (c >> 8);
      tb.t[s][i] = c;
    }
  }
  return tb;
}

const Tables& GetTables() {
  static const Tables tb = MakeTables();
  return tb;
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__)
// The target attribute enables SSE4.2 for this function alone, so the rest
// of the translation unit keeps the build's baseline ISA; Select() calls it
// only after CPUID reported the instruction.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));  // x86 is little-endian: v is LE bytes
    c = _mm_crc32_u64(c, v);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn Select() {
  if (ScalarForcedByEnv()) return &Crc32cExtendPortable;
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return &ExtendSse42;
#endif
  return &Crc32cExtendPortable;
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  static const ExtendFn extend = Select();
  return extend(crc, data, n);
}

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  const Tables& tb = GetTables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  while (n >= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = tb.t[7][lo & 0xFF] ^ tb.t[6][(lo >> 8) & 0xFF] ^
        tb.t[5][(lo >> 16) & 0xFF] ^ tb.t[4][lo >> 24] ^ tb.t[3][hi & 0xFF] ^
        tb.t[2][(hi >> 8) & 0xFF] ^ tb.t[1][(hi >> 16) & 0xFF] ^
        tb.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = tb.t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace bix
