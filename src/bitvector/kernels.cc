#include "bitvector/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/cpu.h"

namespace bix {
namespace kernels {

// ---------------------------------------------------------------------------
// Scalar tier: the behavioural reference. Loop shapes are kept simple
// two-pointer strides so the compiler's autovectorizer does what it can at
// the build's baseline ISA; the explicit tiers exist because the baseline
// (SSE2 on x86-64) leaves 2-8x on the table for these kernels.
// ---------------------------------------------------------------------------

namespace {

void ScalarAnd(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void ScalarOr(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void ScalarXor(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

void ScalarAndNot(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

void ScalarNot(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = ~src[i];
}

// The k-ary folds go block-by-block through an L1-resident accumulator: a
// per-word inner loop over k indirect pointers defeats autovectorization,
// while per-operand passes over a 4 KiB stack block keep the simple
// two-pointer shape and still read each operand from DRAM exactly once.
// The accumulator is flushed only after every operand's block has been
// read, so dst may alias any operand.
constexpr size_t kFuseBlockWords = 512;  // 4 KiB

template <typename Fold>
void ScalarFold(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                size_t n, Fold fold) {
  uint64_t block[kFuseBlockWords];
  for (size_t base = 0; base < n; base += kFuseBlockWords) {
    const size_t len = std::min(kFuseBlockWords, n - base);
    std::memcpy(block, srcs[0] + base, len * sizeof(uint64_t));
    for (size_t i = 1; i < k; ++i) fold(block, srcs[i] + base, len);
    std::memcpy(dst + base, block, len * sizeof(uint64_t));
  }
}

void ScalarAndMany(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                   size_t n) {
  ScalarFold(srcs, k, dst, n, ScalarAnd);
}

void ScalarOrMany(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                  size_t n) {
  ScalarFold(srcs, k, dst, n, ScalarOr);
}

void ScalarXorMany(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                   size_t n) {
  ScalarFold(srcs, k, dst, n, ScalarXor);
}

uint64_t ScalarCount(const uint64_t* w, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(w[i]));
  }
  return total;
}

// acc[i] |= term t's word base + i, one two-pointer pass per term kind.
void OrTermInto(const Term& t, size_t base, uint64_t* acc, size_t len) {
  const uint64_t* a = *t.a + base;
  switch (t.kind) {
    case TermKind::kA:
      for (size_t i = 0; i < len; ++i) acc[i] |= a[i];
      return;
    case TermKind::kNotA:
      for (size_t i = 0; i < len; ++i) acc[i] |= ~a[i];
      return;
    default:
      break;
  }
  const uint64_t* b = *t.b + base;
  switch (t.kind) {
    case TermKind::kAnd:
      for (size_t i = 0; i < len; ++i) acc[i] |= a[i] & b[i];
      return;
    case TermKind::kAndNot:
      for (size_t i = 0; i < len; ++i) acc[i] |= a[i] & ~b[i];
      return;
    case TermKind::kNor:
      for (size_t i = 0; i < len; ++i) acc[i] |= ~(a[i] | b[i]);
      return;
    case TermKind::kXor:
      for (size_t i = 0; i < len; ++i) acc[i] |= a[i] ^ b[i];
      return;
    default:  // kXnor
      for (size_t i = 0; i < len; ++i) acc[i] |= ~(a[i] ^ b[i]);
      return;
  }
}

// Like the folds: the terms are ORed one pass each into an L1 block, which
// is then masked, counted and stored.
uint64_t ScalarOrTerms(const Term* terms, size_t k, const uint64_t* exclude,
                       uint64_t last_mask, uint64_t* dst, size_t n) {
  uint64_t block[kFuseBlockWords];
  uint64_t total = 0;
  for (size_t base = 0; base < n; base += kFuseBlockWords) {
    const size_t len = std::min(kFuseBlockWords, n - base);
    std::memset(block, 0, len * sizeof(uint64_t));
    for (size_t j = 0; j < k; ++j) OrTermInto(terms[j], base, block, len);
    if (exclude != nullptr) ScalarAndNot(block, exclude + base, len);
    if (base + len == n) block[len - 1] &= last_mask;
    total += ScalarCount(block, len);
    if (dst != nullptr) std::memcpy(dst + base, block, len * sizeof(uint64_t));
  }
  return total;
}

constexpr Ops kScalarOps = {
    ScalarAnd,     ScalarOr,      ScalarXor,   ScalarAndNot,
    ScalarNot,     ScalarAndMany, ScalarOrMany, ScalarXorMany,
    ScalarCount,   ScalarOrTerms,
};

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch. The vector tiers live in their own translation units compiled
// with the matching -m flags (see src/bitvector/CMakeLists.txt); they are
// only linked in when the compiler supports the ISA, and only *selected*
// when CPUID confirms the running CPU does too. On non-x86 targets (NEON
// would slot in here) every tier resolves to scalar.
// ---------------------------------------------------------------------------

#if defined(BIX_KERNELS_HAVE_AVX2)
const Ops* GetAvx2Ops();  // kernels_avx2.cc
#endif
#if defined(BIX_KERNELS_HAVE_AVX512)
const Ops* GetAvx512Ops();  // kernels_avx512.cc
#endif

namespace {

const Ops* TableForTier(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return &kScalarOps;
    case Tier::kAvx2:
#if defined(BIX_KERNELS_HAVE_AVX2)
      return GetAvx2Ops();
#else
      return nullptr;
#endif
    case Tier::kAvx512:
#if defined(BIX_KERNELS_HAVE_AVX512)
      return GetAvx512Ops();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool CpuSupports(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Tier::kAvx512:
      // The AVX-512 kernels use 512-bit byte shuffles (popcount via nibble
      // LUT), so BW is required alongside F.
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw");
#else
    default:
      return false;
#endif
  }
  return false;
}

bool TierUsable(Tier t) { return CpuSupports(t) && TableForTier(t) != nullptr; }

// BIX_FORCE_SCALAR=1 pins the scalar reference; BIX_KERNEL_TIER names a
// tier explicitly ("scalar" | "avx2" | "avx512" | "native"). An unusable
// request falls back to the widest usable tier at or below it, so forcing
// avx512 on an avx2-only box runs avx2, never silently the other way up.
Tier DetectTier() {
  Tier ceiling = Tier::kAvx512;
  if (ScalarForcedByEnv()) return Tier::kScalar;
  const char* name = std::getenv("BIX_KERNEL_TIER");
  if (name != nullptr) {
    if (std::strcmp(name, "scalar") == 0) return Tier::kScalar;
    if (std::strcmp(name, "avx2") == 0) ceiling = Tier::kAvx2;
    if (std::strcmp(name, "avx512") == 0) ceiling = Tier::kAvx512;
    // "native", unknown values: keep the full ceiling.
  }
  for (int t = static_cast<int>(ceiling); t > 0; --t) {
    if (TierUsable(static_cast<Tier>(t))) return static_cast<Tier>(t);
  }
  return Tier::kScalar;
}

struct Dispatch {
  // Kernel calls load `table` once per call; SetActiveTier stores both
  // fields. Relaxed is enough: the tables are immutable constants and the
  // pair is only advisory-consistent (TierName of a racing switch is
  // cosmetic, the kernels themselves are interchangeable bit-for-bit).
  std::atomic<const Ops*> table;
  std::atomic<Tier> tier;

  Dispatch() {
    const Tier t = DetectTier();
    tier.store(t, std::memory_order_relaxed);
    table.store(TableForTier(t), std::memory_order_relaxed);
  }

  static Dispatch& Get() {
    static Dispatch d;
    return d;
  }
};

}  // namespace

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const Ops& Active() {
  return *Dispatch::Get().table.load(std::memory_order_relaxed);
}

Tier ActiveTier() {
  return Dispatch::Get().tier.load(std::memory_order_relaxed);
}

Tier MaxSupportedTier() {
  for (int t = static_cast<int>(Tier::kAvx512); t > 0; --t) {
    if (TierUsable(static_cast<Tier>(t))) return static_cast<Tier>(t);
  }
  return Tier::kScalar;
}

const Ops* OpsForTier(Tier t) {
  return TierUsable(t) ? TableForTier(t) : nullptr;
}

bool SetActiveTier(Tier t) {
  const Ops* table = OpsForTier(t);
  if (table == nullptr) return false;
  Dispatch& d = Dispatch::Get();
  d.tier.store(t, std::memory_order_relaxed);
  d.table.store(table, std::memory_order_relaxed);
  return true;
}

}  // namespace kernels
}  // namespace bix
