#ifndef BIX_UTIL_RNG_H_
#define BIX_UTIL_RNG_H_

#include <cstdint>
#include <random>

#include "util/check.h"

namespace bix {

// The SplitMix64 finalizer: a bijective 64-bit mix.
constexpr uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// One SplitMix64 output for state `x`: the seeded hash behind the fault
// schedules and BitmapKeyHash. A pure function, so a fixed seed replays
// the same sequence regardless of thread interleaving.
constexpr uint64_t SplitMix64(uint64_t x) {
  return Mix64(x + 0x9E3779B97F4A7C15ull);
}

// Uniform double in [0, 1) from the top 53 bits of a hash.
constexpr double UnitDraw(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Deterministic random source used by all generators. Wraps a fixed engine
// so that workloads, query sets, and property tests are reproducible from a
// single seed across platforms.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi], inclusive.
  uint64_t UniformInt(uint64_t lo, uint64_t hi) {
    BIX_DCHECK(lo <= hi);
    return std::uniform_int_distribution<uint64_t>(lo, hi)(engine_);
  }

  // Uniform double in [0, 1).
  double UniformDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace bix

#endif  // BIX_UTIL_RNG_H_
