#ifndef BIX_UTIL_CPU_H_
#define BIX_UTIL_CPU_H_

#include <cstdlib>

namespace bix {

// True when BIX_FORCE_SCALAR is set to a non-empty value other than "0".
// Every path chosen by CPUID — the SIMD kernel tiers (DESIGN.md section 17)
// and the CRC32C instruction (util/crc32c.h) — then runs its portable
// reference instead, so one variable re-runs the whole suite on the code
// every machine has.
inline bool ScalarForcedByEnv() {
  const char* force = std::getenv("BIX_FORCE_SCALAR");
  return force != nullptr && force[0] != '\0' && force[0] != '0';
}

}  // namespace bix

#endif  // BIX_UTIL_CPU_H_
