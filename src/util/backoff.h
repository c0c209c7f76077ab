#ifndef BIX_UTIL_BACKOFF_H_
#define BIX_UTIL_BACKOFF_H_

#include <algorithm>
#include <cstdint>

#include "util/rng.h"

namespace bix {

// Decorrelated-jitter retry backoff (the "decorrelated jitter" variant of
// exponential backoff): the next sleep is drawn uniformly from
// [base, 3 * prev), capped at `cap` when cap > 0. Pure exponential backoff
// keeps every retry loop that started at the same instant perfectly in
// phase — N queries hitting one unavailable blob all sleep base, 2*base,
// 4*base and re-arrive as a synchronized thundering herd. The jittered
// schedule spreads the re-arrivals across the interval while keeping the
// same expected growth.
//
// The draw is a pure function of (seed, stream, sleep_index) — the
// SplitMix64 mix (util/rng.h) the fault injectors draw from — so a fixed seed
// replays an exact sleep sequence regardless of thread interleaving, and
// tests can pin the schedule to the nanosecond under a VirtualClock.
// `stream` identifies one retry loop (the service salts it with a per-fetch
// sequence number so concurrent loops over the *same* key decorrelate).
inline double DecorrelatedJitterBackoff(uint64_t seed, uint64_t stream,
                                        uint64_t sleep_index, double base,
                                        double prev, double cap) {
  const double u = UnitDraw(
      Mix64(seed + 0x9E3779B97F4A7C15ull * (stream ^ (sleep_index << 32))));
  const double hi = std::max(base, 3.0 * prev);
  double sleep = base + u * (hi - base);
  if (cap > 0.0) sleep = std::min(sleep, cap);
  return sleep;
}

}  // namespace bix

#endif  // BIX_UTIL_BACKOFF_H_
