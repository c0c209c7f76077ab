#ifndef BIX_UTIL_CRC32C_H_
#define BIX_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace bix {

// CRC32C (Castagnoli polynomial, reflected 0x82F63B78) — the checksum
// stamped on every stored bitmap blob, index-file header and record, WAL
// record and wire frame. The implementation is selected once per process
// by CPUID: the SSE4.2 `crc32` instruction where the CPU has it, otherwise
// the portable slice-by-8 tables (endianness- and alignment-safe, ~1
// byte/cycle). BIX_FORCE_SCALAR=1, which also pins the SIMD kernel tiers,
// pins the portable path. Both give identical values.
//
// The instruction has a 3-cycle latency and a throughput of one per cycle,
// so the SSE4.2 path runs three independent chains: it checksums stripes of
// three adjacent lanes (8 KiB lanes while a whole long stripe remains, then
// 256 B lanes), the second and third lane from a zero register, and merges
// each stripe with zero-shift tables. A zero-shift table advances a CRC
// register over a lane's worth of zero bytes one register byte at a time
// (4 x 256 entries, built at compile time by squaring the one-zero-byte
// GF(2) operator, Adler's construction). The tail under one short stripe
// runs as a single chain.
//
// `Crc32c(p, n)` checksums one buffer; `Crc32cExtend(crc, p, n)` continues
// a running checksum so multi-field records can be covered without
// concatenating them into one buffer:
//
//   uint32_t crc = Crc32c(header, header_len);
//   crc = Crc32cExtend(crc, payload, payload_len);

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

// The portable slice-by-8 implementation, whatever the CPU: the fallback
// Crc32cExtend selects without SSE4.2, and the reference tests compare the
// selected path against.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);

}  // namespace bix

#endif  // BIX_UTIL_CRC32C_H_
