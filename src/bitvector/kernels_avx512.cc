// AVX-512 kernel tier (F + BW). Compiled with -mavx512f -mavx512bw and
// selected only after CPUID confirms both features. Strides are 512-bit
// (8 words); ragged tails are handled with masked loads/stores, so there is
// no scalar epilogue to diverge from the vector path. Popcounts use the
// 512-bit pshufb nibble LUT + psadbw (both BW) rather than VPOPCNTDQ, which
// older AVX-512 parts lack.

#include "bitvector/kernels.h"

#if !defined(__AVX512F__) || !defined(__AVX512BW__)
#error "kernels_avx512.cc must be compiled with -mavx512f -mavx512bw"
#endif

#include <immintrin.h>

namespace bix {
namespace kernels {
namespace {

inline __m512i LoadU(const uint64_t* p) { return _mm512_loadu_si512(p); }
inline void StoreU(uint64_t* p, __m512i v) { _mm512_storeu_si512(p, v); }
inline __mmask8 TailMask(size_t rem) {
  return static_cast<__mmask8>((1u << rem) - 1);
}

template <typename VecOp>
void PairwiseOp(uint64_t* dst, const uint64_t* src, size_t n, VecOp op) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    StoreU(dst + i, op(LoadU(dst + i), LoadU(src + i)));
    StoreU(dst + i + 8, op(LoadU(dst + i + 8), LoadU(src + i + 8)));
  }
  for (; i + 8 <= n; i += 8) {
    StoreU(dst + i, op(LoadU(dst + i), LoadU(src + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512i d = _mm512_maskz_loadu_epi64(m, dst + i);
    const __m512i s = _mm512_maskz_loadu_epi64(m, src + i);
    _mm512_mask_storeu_epi64(dst + i, m, op(d, s));
  }
}

void Avx512And(uint64_t* dst, const uint64_t* src, size_t n) {
  PairwiseOp(dst, src, n,
             [](__m512i a, __m512i b) { return _mm512_and_si512(a, b); });
}

void Avx512Or(uint64_t* dst, const uint64_t* src, size_t n) {
  PairwiseOp(dst, src, n,
             [](__m512i a, __m512i b) { return _mm512_or_si512(a, b); });
}

void Avx512Xor(uint64_t* dst, const uint64_t* src, size_t n) {
  PairwiseOp(dst, src, n,
             [](__m512i a, __m512i b) { return _mm512_xor_si512(a, b); });
}

void Avx512AndNot(uint64_t* dst, const uint64_t* src, size_t n) {
  // vpandnq computes ~a & b: src in the first slot.
  PairwiseOp(dst, src, n,
             [](__m512i d, __m512i s) { return _mm512_andnot_si512(s, d); });
}

void Avx512Not(uint64_t* dst, const uint64_t* src, size_t n) {
  const __m512i ones = _mm512_set1_epi64(-1);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    StoreU(dst + i, _mm512_xor_si512(LoadU(src + i), ones));
    StoreU(dst + i + 8, _mm512_xor_si512(LoadU(src + i + 8), ones));
  }
  for (; i + 8 <= n; i += 8) {
    StoreU(dst + i, _mm512_xor_si512(LoadU(src + i), ones));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512i s = _mm512_maskz_loadu_epi64(m, src + i);
    _mm512_mask_storeu_epi64(dst + i, m, _mm512_xor_si512(s, ones));
  }
}

// k-ary folds: an 8-word stride is combined across all k operands in
// registers before its single store, so dst may alias any operand.
template <typename VecOp>
void Fold(const uint64_t* const* srcs, size_t k, uint64_t* dst, size_t n,
          VecOp op) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i acc = LoadU(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) acc = op(acc, LoadU(srcs[j] + i));
    StoreU(dst + i, acc);
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    __m512i acc = _mm512_maskz_loadu_epi64(m, srcs[0] + i);
    for (size_t j = 1; j < k; ++j) {
      acc = op(acc, _mm512_maskz_loadu_epi64(m, srcs[j] + i));
    }
    _mm512_mask_storeu_epi64(dst + i, m, acc);
  }
}

void Avx512AndMany(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                   size_t n) {
  // AND's identity under maskz loads is broken (missing lanes read as 0),
  // but every lane of the masked stride is loaded for every operand, so
  // lane j of acc only ever combines lane j values — no identity needed.
  Fold(srcs, k, dst, n,
       [](__m512i a, __m512i b) { return _mm512_and_si512(a, b); });
}

void Avx512OrMany(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                  size_t n) {
  Fold(srcs, k, dst, n,
       [](__m512i a, __m512i b) { return _mm512_or_si512(a, b); });
}

void Avx512XorMany(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                   size_t n) {
  Fold(srcs, k, dst, n,
       [](__m512i a, __m512i b) { return _mm512_xor_si512(a, b); });
}

// Per-byte popcount via two 512-bit pshufb nibble lookups, reduced to
// eight u64 partial sums by psadbw against zero.
inline __m512i PopcountLanes(__m512i v) {
  const __m512i lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi32(v, 4), low);
  const __m512i cnt = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                      _mm512_shuffle_epi8(lut, hi));
  return _mm512_sad_epu8(cnt, _mm512_setzero_si512());
}

uint64_t Avx512Count(const uint64_t* w, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc, PopcountLanes(LoadU(w + i)));
  }
  if (i < n) {
    const __m512i v = _mm512_maskz_loadu_epi64(TailMask(n - i), w + i);
    acc = _mm512_add_epi64(acc, PopcountLanes(v));
  }
  return static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
}

// An operand's 8 words at p: all of them, or the lanes set in m (the others
// read as 0, and are never touched in memory).
struct FullLoad {
  __m512i operator()(const uint64_t* p) const { return LoadU(p); }
};
struct MaskedLoad {
  __mmask8 m;
  __m512i operator()(const uint64_t* p) const {
    return _mm512_maskz_loadu_epi64(m, p);
  }
};

// acc[v] |= term(words [i + 8v, i + 8v + 8)), v < V, in one ternary-logic
// instruction per vector: kImm is the truth table of acc | f(x, y).
template <int kImm, int V, typename Load>
inline void Fold1(const uint64_t* a, Load load, __m512i* acc) {
  for (int v = 0; v < V; ++v) {
    const __m512i x = load(a + 8 * v);
    acc[v] = _mm512_ternarylogic_epi64(acc[v], x, x, kImm);
  }
}
template <int kImm, int V, typename Load>
inline void Fold2(const uint64_t* a, const uint64_t* b, Load load,
                  __m512i* acc) {
  for (int v = 0; v < V; ++v) {
    acc[v] = _mm512_ternarylogic_epi64(acc[v], load(a + 8 * v),
                                       load(b + 8 * v), kImm);
  }
}

// ORs every term's words [i, i + 8V) into acc[0..V).
template <int V, typename Load>
inline void OrTermsInto(const Term* terms, size_t k, size_t i, Load load,
                        __m512i* acc) {
  for (size_t j = 0; j < k; ++j) {
    const Term& t = terms[j];
    const uint64_t* a = *t.a + i;
    switch (t.kind) {
      case TermKind::kA:
        Fold1<0xFC, V>(a, load, acc);  // acc | x
        continue;
      case TermKind::kNotA:
        Fold1<0xF3, V>(a, load, acc);  // acc | ~x
        continue;
      default:
        break;
    }
    const uint64_t* b = *t.b + i;
    switch (t.kind) {
      case TermKind::kAnd:
        Fold2<0xF8, V>(a, b, load, acc);  // acc | (x & y)
        break;
      case TermKind::kAndNot:
        Fold2<0xF4, V>(a, b, load, acc);  // acc | (x & ~y)
        break;
      case TermKind::kNor:
        Fold2<0xF1, V>(a, b, load, acc);  // acc | ~(x | y)
        break;
      case TermKind::kXor:
        Fold2<0xF6, V>(a, b, load, acc);  // acc | (x ^ y)
        break;
      default:
        Fold2<0xF9, V>(a, b, load, acc);  // kXnor: acc | ~(x ^ y)
        break;
    }
  }
}

// Four vectors of terms per stride; the last (partial) vectors run with
// masked loads and stores, and word n-1 alone takes last_mask.
uint64_t Avx512OrTerms(const Term* terms, size_t k, const uint64_t* exclude,
                       uint64_t last_mask, uint64_t* dst, size_t n) {
  if (n == 0) return 0;
  __m512i count = _mm512_setzero_si512();
  const size_t whole = last_mask == ~uint64_t{0} ? n : n - 1;
  size_t i = 0;
  for (; i + 32 <= whole; i += 32) {
    __m512i acc[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512()};
    OrTermsInto<4>(terms, k, i, FullLoad{}, acc);
    for (int v = 0; v < 4; ++v) {
      if (exclude != nullptr) {
        acc[v] = _mm512_andnot_si512(LoadU(exclude + i + 8 * v), acc[v]);
      }
      if (dst != nullptr) StoreU(dst + i + 8 * v, acc[v]);
      count = _mm512_add_epi64(count, PopcountLanes(acc[v]));
    }
  }
  for (; i < n; i += 8) {
    const MaskedLoad load{n - i >= 8 ? __mmask8{0xFF} : TailMask(n - i)};
    __m512i acc = _mm512_setzero_si512();
    OrTermsInto<1>(terms, k, i, load, &acc);
    if (exclude != nullptr) acc = _mm512_andnot_si512(load(exclude + i), acc);
    if (n - i <= 8) {
      acc = _mm512_mask_and_epi64(acc, static_cast<__mmask8>(1u << (n - 1 - i)),
                                  acc, _mm512_set1_epi64(
                                           static_cast<long long>(last_mask)));
    }
    acc = _mm512_maskz_mov_epi64(load.m, acc);
    if (dst != nullptr) _mm512_mask_storeu_epi64(dst + i, load.m, acc);
    count = _mm512_add_epi64(count, PopcountLanes(acc));
  }
  return static_cast<uint64_t>(_mm512_reduce_add_epi64(count));
}

constexpr Ops kAvx512Ops = {
    Avx512And,    Avx512Or,      Avx512Xor,    Avx512AndNot,
    Avx512Not,    Avx512AndMany, Avx512OrMany, Avx512XorMany,
    Avx512Count,  Avx512OrTerms,
};

}  // namespace

const Ops* GetAvx512Ops() { return &kAvx512Ops; }

}  // namespace kernels
}  // namespace bix
