// AVX2 kernel tier. This translation unit is compiled with -mavx2 (see
// CMakeLists.txt) and must only be *selected* after __builtin_cpu_supports
// confirms the running CPU has AVX2 — nothing outside GetAvx2Ops() may call
// into it.
//
// Strides are 256-bit (4 words), unrolled x2 where the loop is pure
// load/op/store; tails fall back to scalar words, except or_terms', which
// use masked loads and stores. Popcounts use the
// pshufb nibble-LUT + psadbw reduction (Mula), which needs no instruction
// beyond AVX2 itself.

#include "bitvector/kernels.h"

#if !defined(__AVX2__)
#error "kernels_avx2.cc must be compiled with -mavx2"
#endif

#include <immintrin.h>

namespace bix {
namespace kernels {
namespace {

inline __m256i LoadU(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void StoreU(uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

void Avx2And(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    StoreU(dst + i, _mm256_and_si256(LoadU(dst + i), LoadU(src + i)));
    StoreU(dst + i + 4, _mm256_and_si256(LoadU(dst + i + 4), LoadU(src + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    StoreU(dst + i, _mm256_and_si256(LoadU(dst + i), LoadU(src + i)));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

void Avx2Or(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    StoreU(dst + i, _mm256_or_si256(LoadU(dst + i), LoadU(src + i)));
    StoreU(dst + i + 4, _mm256_or_si256(LoadU(dst + i + 4), LoadU(src + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    StoreU(dst + i, _mm256_or_si256(LoadU(dst + i), LoadU(src + i)));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

void Avx2Xor(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    StoreU(dst + i, _mm256_xor_si256(LoadU(dst + i), LoadU(src + i)));
    StoreU(dst + i + 4, _mm256_xor_si256(LoadU(dst + i + 4), LoadU(src + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    StoreU(dst + i, _mm256_xor_si256(LoadU(dst + i), LoadU(src + i)));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void Avx2AndNot(uint64_t* dst, const uint64_t* src, size_t n) {
  // vpandn computes ~a & b, so src goes in the first slot.
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    StoreU(dst + i, _mm256_andnot_si256(LoadU(src + i), LoadU(dst + i)));
    StoreU(dst + i + 4,
           _mm256_andnot_si256(LoadU(src + i + 4), LoadU(dst + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    StoreU(dst + i, _mm256_andnot_si256(LoadU(src + i), LoadU(dst + i)));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

void Avx2Not(uint64_t* dst, const uint64_t* src, size_t n) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    StoreU(dst + i, _mm256_xor_si256(LoadU(src + i), ones));
    StoreU(dst + i + 4, _mm256_xor_si256(LoadU(src + i + 4), ones));
  }
  for (; i + 4 <= n; i += 4) {
    StoreU(dst + i, _mm256_xor_si256(LoadU(src + i), ones));
  }
  for (; i < n; ++i) dst[i] = ~src[i];
}

// k-ary folds: one 4-word stride stays in a register while all k operands
// are read, so dst may alias any operand (the stride's loads all precede
// its store).
template <typename VecOp, typename WordOp>
void Avx2Fold(const uint64_t* const* srcs, size_t k, uint64_t* dst, size_t n,
              VecOp vec_op, WordOp word_op) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i acc = LoadU(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) acc = vec_op(acc, LoadU(srcs[j] + i));
    StoreU(dst + i, acc);
  }
  for (; i < n; ++i) {
    uint64_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) acc = word_op(acc, srcs[j][i]);
    dst[i] = acc;
  }
}

void Avx2AndMany(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                 size_t n) {
  Avx2Fold(srcs, k, dst, n,
           [](__m256i a, __m256i b) { return _mm256_and_si256(a, b); },
           [](uint64_t a, uint64_t b) { return a & b; });
}

void Avx2OrMany(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                size_t n) {
  Avx2Fold(srcs, k, dst, n,
           [](__m256i a, __m256i b) { return _mm256_or_si256(a, b); },
           [](uint64_t a, uint64_t b) { return a | b; });
}

void Avx2XorMany(const uint64_t* const* srcs, size_t k, uint64_t* dst,
                 size_t n) {
  Avx2Fold(srcs, k, dst, n,
           [](__m256i a, __m256i b) { return _mm256_xor_si256(a, b); },
           [](uint64_t a, uint64_t b) { return a ^ b; });
}

// Per-byte popcount of a vector via two pshufb nibble lookups, reduced to
// four u64 partial sums by psadbw against zero.
inline __m256i PopcountLanes(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
  const __m256i cnt =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline uint64_t HorizontalSum(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

uint64_t Avx2Count(const uint64_t* w, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(acc, PopcountLanes(LoadU(w + i)));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(w[i]));
  }
  return total;
}

// An operand's 4 words at p: all of them, or the lanes set in m (the others
// read as 0, and are never touched in memory).
struct FullLoad {
  __m256i operator()(const uint64_t* p) const { return LoadU(p); }
};
struct MaskedLoad {
  __m256i m;
  __m256i operator()(const uint64_t* p) const {
    return _mm256_maskload_epi64(reinterpret_cast<const long long*>(p), m);
  }
};

// acc[v] |= term(words [i + 4v, i + 4v + 4)) for one operand, v < V.
template <int V, typename Load, typename Op>
inline void Fold1(const uint64_t* a, Load load, __m256i* acc, Op op) {
  for (int v = 0; v < V; ++v) {
    acc[v] = _mm256_or_si256(acc[v], op(load(a + 4 * v)));
  }
}
template <int V, typename Load, typename Op>
inline void Fold2(const uint64_t* a, const uint64_t* b, Load load,
                  __m256i* acc, Op op) {
  for (int v = 0; v < V; ++v) {
    acc[v] = _mm256_or_si256(acc[v], op(load(a + 4 * v), load(b + 4 * v)));
  }
}

// ORs every term's words [i, i + 4V) into acc[0..V).
template <int V, typename Load>
inline void OrTermsInto(const Term* terms, size_t k, size_t i, Load load,
                        __m256i* acc) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (size_t j = 0; j < k; ++j) {
    const Term& t = terms[j];
    const uint64_t* a = *t.a + i;
    switch (t.kind) {
      case TermKind::kA:
        Fold1<V>(a, load, acc, [](__m256i x) { return x; });
        continue;
      case TermKind::kNotA:
        Fold1<V>(a, load, acc,
                 [ones](__m256i x) { return _mm256_xor_si256(x, ones); });
        continue;
      default:
        break;
    }
    const uint64_t* b = *t.b + i;
    switch (t.kind) {
      case TermKind::kAnd:
        Fold2<V>(a, b, load, acc, [](__m256i x, __m256i y) {
          return _mm256_and_si256(x, y);
        });
        break;
      case TermKind::kAndNot:
        Fold2<V>(a, b, load, acc, [](__m256i x, __m256i y) {
          return _mm256_andnot_si256(y, x);
        });
        break;
      case TermKind::kNor:
        Fold2<V>(a, b, load, acc, [ones](__m256i x, __m256i y) {
          return _mm256_xor_si256(_mm256_or_si256(x, y), ones);
        });
        break;
      case TermKind::kXor:
        Fold2<V>(a, b, load, acc, [](__m256i x, __m256i y) {
          return _mm256_xor_si256(x, y);
        });
        break;
      default:  // kXnor
        Fold2<V>(a, b, load, acc, [ones](__m256i x, __m256i y) {
          return _mm256_xor_si256(_mm256_xor_si256(x, y), ones);
        });
        break;
    }
  }
}

// Four vectors of terms per stride; the last (partial) vectors run with
// masked loads and stores, and word n-1 alone takes last_mask.
uint64_t Avx2OrTerms(const Term* terms, size_t k, const uint64_t* exclude,
                     uint64_t last_mask, uint64_t* dst, size_t n) {
  if (n == 0) return 0;
  __m256i count = _mm256_setzero_si256();
  const size_t whole = last_mask == ~uint64_t{0} ? n : n - 1;
  size_t i = 0;
  for (; i + 16 <= whole; i += 16) {
    __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                      _mm256_setzero_si256(), _mm256_setzero_si256()};
    OrTermsInto<4>(terms, k, i, FullLoad{}, acc);
    for (int v = 0; v < 4; ++v) {
      if (exclude != nullptr) {
        acc[v] = _mm256_andnot_si256(LoadU(exclude + i + 4 * v), acc[v]);
      }
      if (dst != nullptr) StoreU(dst + i + 4 * v, acc[v]);
      count = _mm256_add_epi64(count, PopcountLanes(acc[v]));
    }
  }
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  for (; i < n; i += 4) {
    // Lanes [0, n - i) are words of the answer; lane n-1-i is the last.
    const long long rem = static_cast<long long>(n - i);
    const MaskedLoad load{_mm256_cmpgt_epi64(_mm256_set1_epi64x(rem), lane)};
    __m256i acc = _mm256_setzero_si256();
    OrTermsInto<1>(terms, k, i, load, &acc);
    if (exclude != nullptr) acc = _mm256_andnot_si256(load(exclude + i), acc);
    if (rem <= 4) {
      const __m256i last = _mm256_cmpeq_epi64(_mm256_set1_epi64x(rem - 1),
                                              lane);
      acc = _mm256_and_si256(
          acc, _mm256_blendv_epi8(_mm256_set1_epi64x(-1),
                                  _mm256_set1_epi64x(
                                      static_cast<long long>(last_mask)),
                                  last));
    }
    acc = _mm256_and_si256(acc, load.m);
    if (dst != nullptr) {
      _mm256_maskstore_epi64(reinterpret_cast<long long*>(dst + i), load.m,
                             acc);
    }
    count = _mm256_add_epi64(count, PopcountLanes(acc));
  }
  return HorizontalSum(count);
}

constexpr Ops kAvx2Ops = {
    Avx2And,    Avx2Or,      Avx2Xor,    Avx2AndNot,
    Avx2Not,    Avx2AndMany, Avx2OrMany, Avx2XorMany,
    Avx2Count,  Avx2OrTerms,
};

}  // namespace

const Ops* GetAvx2Ops() { return &kAvx2Ops; }

}  // namespace kernels
}  // namespace bix
