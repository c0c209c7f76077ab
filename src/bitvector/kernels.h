#ifndef BIX_BITVECTOR_KERNELS_H_
#define BIX_BITVECTOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace bix {
namespace kernels {

// The word-level kernel tier behind every hot bitmap loop (DESIGN.md
// section 17). All kernels operate on raw 64-bit word arrays — the
// Bitvector layer and the evaluator's union program both dispatch here —
// and every tier is bit-identical to the scalar reference (enforced by the
// differential oracle in tests/simd_kernels_test.cc).
//
// Tier selection happens once, at first use: CPUID feature detection picks
// the widest tier the hardware supports, overridable for testing via the
// environment (BIX_FORCE_SCALAR=1, or BIX_KERNEL_TIER=scalar|avx2|avx512).
// The scalar tier is always available and is the behavioural reference.
enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

// Short lowercase name ("scalar", "avx2", "avx512") for bench columns,
// trace tags, and the BENCH_simd.json artifact.
const char* TierName(Tier t);

// One term of or_terms: a literal or a two-operand AND/XOR, its
// complements folded into one of seven kinds (a & ~b covers ~a & b with
// the operands swapped; ~a ^ ~b is a ^ b). Each operand is read through a
// pointer to its current block, so a term built once follows its operands
// from block to block.
enum class TermKind : uint8_t {
  kA,       // a
  kNotA,    // ~a
  kAnd,     // a & b
  kAndNot,  // a & ~b
  kNor,     // ~(a | b)
  kXor,     // a ^ b
  kXnor,    // ~(a ^ b)
};

struct Term {
  TermKind kind = TermKind::kA;
  const uint64_t* const* a = nullptr;  // -> operand a's words
  const uint64_t* const* b = nullptr;  // -> operand b's words (two-operand
                                       //    kinds only)
};

// A tier's kernel table. Contracts shared by all implementations:
//  - `n` counts 64-bit words; n == 0 is valid everywhere.
//  - Pairwise ops are in-place on dst; dst == src is allowed.
//  - The k-ary folds read every operand's word for a stride before writing
//    that stride of dst, so dst may alias any srcs[i] exactly (partial
//    overlap is not supported, matching Bitvector buffers). k >= 1.
//  - Kernels never touch bits the caller didn't pass: a Bitvector caller
//    re-establishes its trailing-bit invariant (only NOT-family kernels can
//    set trailing bits; AND/OR/XOR of zero-padded tails stay zero-padded).
struct Ops {
  // dst[i] &= src[i]  (and |=, ^=, &= ~ respectively)
  void (*and_words)(uint64_t* dst, const uint64_t* src, size_t n);
  void (*or_words)(uint64_t* dst, const uint64_t* src, size_t n);
  void (*xor_words)(uint64_t* dst, const uint64_t* src, size_t n);
  void (*andnot_words)(uint64_t* dst, const uint64_t* src, size_t n);
  // dst[i] = ~src[i]
  void (*not_words)(uint64_t* dst, const uint64_t* src, size_t n);
  // dst[i] = srcs[0][i] op srcs[1][i] op ... op srcs[k-1][i] in one pass:
  // each word is read from all k operands and written once.
  void (*and_many)(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                   size_t n);
  void (*or_many)(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                  size_t n);
  void (*xor_many)(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                   size_t n);
  // popcount(w)
  uint64_t (*count)(const uint64_t* w, size_t n);
  // The union program's root (DESIGN.md section 12). Answer word i is the
  // OR of the k terms' words i, & ~exclude[i] when exclude is non-null;
  // word n-1 is also ANDed with last_mask. Stores the answer to dst when
  // dst is non-null (dst overlaps no operand) and returns its popcount.
  // Each operand word is loaded once and each answer word stored once;
  // k == 0 is an all-zero answer.
  uint64_t (*or_terms)(const Term* terms, size_t k, const uint64_t* exclude,
                       uint64_t last_mask, uint64_t* dst, size_t n);

  // popcount(a & b): one kAnd term through or_terms (perfbench's traced
  // run measures it as a kernel rate).
  uint64_t and_count(const uint64_t* a, const uint64_t* b, size_t n) const {
    const Term term{TermKind::kAnd, &a, &b};
    return or_terms(&term, 1, nullptr, ~uint64_t{0}, nullptr, n);
  }
};

// The active tier's table. First call runs detection (cheap, cached);
// subsequent calls are a single relaxed atomic load.
const Ops& Active();
Tier ActiveTier();

// Widest tier this CPU supports (compile-time availability AND runtime
// CPUID agree).
Tier MaxSupportedTier();

// The table for a specific tier, or nullptr when this build/CPU can't run
// it. The differential oracle iterates supported tiers against kScalar.
const Ops* OpsForTier(Tier t);

// Forces the active tier (testing/bench only; returns false and leaves the
// active tier unchanged when unsupported). Not synchronized against
// concurrently running kernels — call from a quiesced process, the way the
// oracle and the per-tier benches do.
bool SetActiveTier(Tier t);

}  // namespace kernels
}  // namespace bix

#endif  // BIX_BITVECTOR_KERNELS_H_
