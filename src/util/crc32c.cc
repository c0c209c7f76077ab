#include "util/crc32c.h"

#include <array>
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
// Lane geometry of the SSE4.2 path. `crc32` issues one per cycle but has a
// 3-cycle latency, so a single dependent chain runs at a third of the
// instruction's rate. The loop instead checksums a stripe of three adjacent
// lanes at once, the second and third lane each from a zero register, and
// merges them: crc(A ++ B) = Shift_|B|(crc(A)) ^ crc_0(B), where Shift_n
// advances a CRC register over n zero bytes. Long lanes take the bulk of a
// buffer; short lanes take the rest, so a remainder under one long stripe
// still runs three chains.
constexpr size_t kLongLane = 8192;
constexpr size_t kShortLane = 256;

// Shift_n is linear over GF(2), so it applies one byte of the register at a
// time: t[k][b] is the shifted image of byte value b at byte position k.
struct ShiftTable {
  uint32_t t[4][256];
};

// A 32x32 GF(2) matrix, column i being the image of bit i.
using Gf2Matrix = std::array<uint32_t, 32>;

constexpr uint32_t Gf2Times(const Gf2Matrix& m, uint32_t v) {
  uint32_t r = 0;
  for (int i = 0; v != 0; ++i, v >>= 1) {
    if (v & 1) r ^= m[i];
  }
  return r;
}

// Adler's construction: the operator for one zero byte, squared until it
// covers `n_bytes` (a power of two), then tabulated per byte position.
// Evaluated at compile time.
constexpr ShiftTable MakeShiftTable(size_t n_bytes) {
  Gf2Matrix op{};
  for (int i = 0; i < 32; ++i) {
    uint32_t c = uint32_t{1} << i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
    op[i] = c;
  }
  for (size_t covered = 1; covered < n_bytes; covered <<= 1) {
    Gf2Matrix squared{};
    for (int i = 0; i < 32; ++i) squared[i] = Gf2Times(op, op[i]);
    op = squared;
  }
  ShiftTable tb{};
  for (uint32_t b = 0; b < 256; ++b) {
    for (int k = 0; k < 4; ++k) tb.t[k][b] = Gf2Times(op, b << (8 * k));
  }
  return tb;
}

constexpr ShiftTable kLongShift = MakeShiftTable(kLongLane);
constexpr ShiftTable kShortShift = MakeShiftTable(kShortLane);

inline uint32_t Shift(const ShiftTable& tb, uint32_t c) {
  return tb.t[0][c & 0xFF] ^ tb.t[1][(c >> 8) & 0xFF] ^
         tb.t[2][(c >> 16) & 0xFF] ^ tb.t[3][c >> 24];
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));  // x86 is little-endian: v is LE bytes
  return v;
}

// Folds every whole stripe of three kLane-byte lanes at *p into register c.
// The target attribute enables SSE4.2 for these functions alone, so the
// rest of the translation unit keeps the build's baseline ISA; Select()
// picks ExtendSse42 only after CPUID reported the instruction.
template <size_t kLane>
__attribute__((target("sse4.2"))) uint64_t Stripes(uint64_t c,
                                                   const ShiftTable& shift,
                                                   const uint8_t** p,
                                                   size_t* n) {
  for (; *n >= 3 * kLane; *p += 3 * kLane, *n -= 3 * kLane) {
    const uint8_t* a = *p;
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < kLane; i += 8) {
      c = _mm_crc32_u64(c, Load64(a + i));
      c1 = _mm_crc32_u64(c1, Load64(a + kLane + i));
      c2 = _mm_crc32_u64(c2, Load64(a + 2 * kLane + i));
    }
    c = Shift(shift, Shift(shift, static_cast<uint32_t>(c)) ^
                         static_cast<uint32_t>(c1)) ^
        c2;
  }
  return c;
}

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = crc ^ 0xFFFFFFFFu;
  c = Stripes<kLongLane>(c, kLongShift, &p, &n);
  c = Stripes<kShortLane>(c, kShortShift, &p, &n);
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, Load64(p));
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
