// Differential oracle for the SIMD kernel tiers (DESIGN.md section 17):
// every tier the build+CPU can run must be bit-identical to the scalar
// reference on adversarial shapes — ragged tails, aliasing destinations,
// k=1..32 operand lists, all-zero/all-one words — at the raw word level,
// through the Bitvector API (trailing-bit invariant), and through full
// query evaluation over every encoding scheme and storage codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bitvector/bitvector.h"
#include "bitvector/kernels.h"
#include "compress/codec.h"
#include "encoding/encoding_scheme.h"
#include "expr/evaluate.h"
#include "util/rng.h"

namespace bix {
namespace {

using kernels::Ops;
using kernels::Term;
using kernels::TermKind;
using kernels::Tier;

std::vector<Tier> SupportedTiers() {
  std::vector<Tier> tiers;
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (kernels::OpsForTier(t) != nullptr) tiers.push_back(t);
  }
  return tiers;
}

std::vector<Tier> VectorTiers() {
  std::vector<Tier> tiers = SupportedTiers();
  tiers.erase(std::remove(tiers.begin(), tiers.end(), Tier::kScalar),
              tiers.end());
  return tiers;
}

// Flips the process-wide active tier for a scope, restoring on exit, so
// Bitvector and evaluator paths run under the tier being checked.
class TierGuard {
 public:
  explicit TierGuard(Tier t) : saved_(kernels::ActiveTier()) {
    EXPECT_TRUE(kernels::SetActiveTier(t));
  }
  ~TierGuard() { kernels::SetActiveTier(saved_); }

 private:
  Tier saved_;
};

// Word-array fill shapes the tails and unrolled strides must survive: pure
// random, all-zero, all-one, and random with zero/one words mixed in.
enum class Fill { kRandom, kZero, kOnes, kMixed };

std::vector<uint64_t> MakeWords(size_t n, Fill fill, Rng* rng) {
  std::vector<uint64_t> w(n);
  for (size_t i = 0; i < n; ++i) {
    switch (fill) {
      case Fill::kRandom:
        w[i] = rng->engine()();
        break;
      case Fill::kZero:
        w[i] = 0;
        break;
      case Fill::kOnes:
        w[i] = ~uint64_t{0};
        break;
      case Fill::kMixed: {
        const uint64_t pick = rng->UniformInt(0, 3);
        w[i] = pick == 0 ? 0 : pick == 1 ? ~uint64_t{0} : rng->engine()();
        break;
      }
    }
  }
  return w;
}

// The adversarial word counts from the issue's checklist: bit sizes 0, 1,
// 63, 64, 65, 511*64, 513*64 map to these word counts, padded with sizes
// that straddle every tier's stride and unroll boundaries (4/8/16 words).
const size_t kWordSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 511, 513};

const Fill kFills[] = {Fill::kRandom, Fill::kZero, Fill::kOnes, Fill::kMixed};

TEST(SimdKernelsOracle, PairwiseOpsMatchScalar) {
  const Ops& scalar = *kernels::OpsForTier(Tier::kScalar);
  Rng rng(1001);
  for (Tier t : VectorTiers()) {
    const Ops& ops = *kernels::OpsForTier(t);
    for (size_t n : kWordSizes) {
      for (Fill fill : kFills) {
        const std::vector<uint64_t> a = MakeWords(n, fill, &rng);
        const std::vector<uint64_t> b = MakeWords(n, Fill::kRandom, &rng);
        const auto check = [&](void (*vec)(uint64_t*, const uint64_t*,
                                           size_t),
                               void (*ref)(uint64_t*, const uint64_t*,
                                           size_t),
                               const char* name) {
          std::vector<uint64_t> got = a;
          std::vector<uint64_t> want = a;
          vec(got.data(), b.data(), n);
          ref(want.data(), b.data(), n);
          EXPECT_EQ(got, want)
              << name << " tier=" << kernels::TierName(t) << " n=" << n;
          // dst == src aliasing (the contract allows it).
          std::vector<uint64_t> self = a;
          std::vector<uint64_t> self_want = a;
          vec(self.data(), self.data(), n);
          ref(self_want.data(), self_want.data(), n);
          EXPECT_EQ(self, self_want)
              << name << " aliased tier=" << kernels::TierName(t)
              << " n=" << n;
        };
        check(ops.and_words, scalar.and_words, "and");
        check(ops.or_words, scalar.or_words, "or");
        check(ops.xor_words, scalar.xor_words, "xor");
        check(ops.andnot_words, scalar.andnot_words, "andnot");
        // not_words: out-of-place and fully aliased.
        std::vector<uint64_t> got(n);
        std::vector<uint64_t> want(n);
        ops.not_words(got.data(), a.data(), n);
        scalar.not_words(want.data(), a.data(), n);
        EXPECT_EQ(got, want) << "not tier=" << kernels::TierName(t);
        std::vector<uint64_t> self = a;
        ops.not_words(self.data(), self.data(), n);
        EXPECT_EQ(self, want) << "not aliased tier=" << kernels::TierName(t);
      }
    }
  }
}

TEST(SimdKernelsOracle, CountKernelsMatchScalar) {
  const Ops& scalar = *kernels::OpsForTier(Tier::kScalar);
  Rng rng(1002);
  for (Tier t : VectorTiers()) {
    const Ops& ops = *kernels::OpsForTier(t);
    for (size_t n : kWordSizes) {
      for (Fill fill : kFills) {
        const std::vector<uint64_t> a = MakeWords(n, fill, &rng);
        EXPECT_EQ(ops.count(a.data(), n), scalar.count(a.data(), n))
            << "count tier=" << kernels::TierName(t) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelsOracle, FoldKernelsMatchScalarForEveryWidthAndAlias) {
  const Ops& scalar = *kernels::OpsForTier(Tier::kScalar);
  Rng rng(1003);
  const size_t widths[] = {1, 2, 3, 4, 5, 8, 16, 32};
  const size_t sizes[] = {0, 1, 9, 65, 513};
  for (Tier t : VectorTiers()) {
    const Ops& ops = *kernels::OpsForTier(t);
    for (size_t k : widths) {
      for (size_t n : sizes) {
        std::vector<std::vector<uint64_t>> operands;
        for (size_t i = 0; i < k; ++i) {
          operands.push_back(MakeWords(n, kFills[i % 4], &rng));
        }
        std::vector<const uint64_t*> srcs;
        for (const auto& op : operands) srcs.push_back(op.data());
        const auto check = [&](void (*vec)(const uint64_t* const*, size_t,
                                           uint64_t*, size_t),
                               void (*ref)(const uint64_t* const*, size_t,
                                           uint64_t*, size_t),
                               const char* name) {
          std::vector<uint64_t> want(n, 0xA5A5A5A5A5A5A5A5ull);
          ref(srcs.data(), k, want.data(), n);
          std::vector<uint64_t> got(n, 0x5A5A5A5A5A5A5A5Aull);
          vec(srcs.data(), k, got.data(), n);
          EXPECT_EQ(got, want) << name << " tier=" << kernels::TierName(t)
                               << " k=" << k << " n=" << n;
          // dst aliasing each operand in turn (first, middle, last).
          for (size_t alias : {size_t{0}, k / 2, k - 1}) {
            std::vector<std::vector<uint64_t>> copy = operands;
            std::vector<const uint64_t*> copy_srcs;
            for (const auto& op : copy) copy_srcs.push_back(op.data());
            vec(copy_srcs.data(), k, copy[alias].data(), n);
            EXPECT_EQ(copy[alias], want)
                << name << " aliased op " << alias
                << " tier=" << kernels::TierName(t) << " k=" << k
                << " n=" << n;
          }
        };
        check(ops.and_many, scalar.and_many, "and_many");
        check(ops.or_many, scalar.or_many, "or_many");
        check(ops.xor_many, scalar.xor_many, "xor_many");
      }
    }
  }
}

// One term's word from first principles, independent of every tier.
uint64_t NaiveTermWord(TermKind kind, uint64_t a, uint64_t b) {
  switch (kind) {
    case TermKind::kA:
      return a;
    case TermKind::kNotA:
      return ~a;
    case TermKind::kAnd:
      return a & b;
    case TermKind::kAndNot:
      return a & ~b;
    case TermKind::kNor:
      return ~a & ~b;
    case TermKind::kXor:
      return a ^ b;
    case TermKind::kXnor:
      return a ^ ~b;
  }
  return 0;
}

// or_terms: every tier, the scalar reference included, against a naive
// per-word union, over every term kind, k = 1..32 terms, block lengths
// around every stride and tail, an exclusion mask and a destination each
// present or absent, and last-word masks both full and partial. The count
// is the popcount of the stored words, bits outside the last word's mask
// stay clear, and no word past n is written.
TEST(SimdKernelsOracle, OrTermsMatchNaiveUnionOnEveryTier) {
  const TermKind kinds[] = {TermKind::kA,      TermKind::kNotA,
                            TermKind::kAnd,    TermKind::kAndNot,
                            TermKind::kNor,    TermKind::kXor,
                            TermKind::kXnor};
  constexpr uint64_t kSentinel = 0x5A5A5A5A5A5A5A5Aull;
  constexpr size_t kGuard = 8;  // words past n that must stay untouched
  Rng rng(1004);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{255}, size_t{256}}) {
    std::vector<std::vector<uint64_t>> operands;
    for (size_t i = 0; i < 8; ++i) {
      operands.push_back(MakeWords(n, kFills[i % 4], &rng));
    }
    std::vector<const uint64_t*> blocks;
    for (const auto& op : operands) blocks.push_back(op.data());
    const std::vector<uint64_t> exclude = MakeWords(n, Fill::kMixed, &rng);
    const uint64_t partial = (uint64_t{1} << rng.UniformInt(1, 63)) - 1;
    for (size_t k = 1; k <= 32; ++k) {
      std::vector<Term> terms;
      for (size_t j = 0; j < k; ++j) {
        terms.push_back(Term{kinds[(j + k) % 7],
                             &blocks[rng.UniformInt(0, 7)],
                             &blocks[rng.UniformInt(0, 7)]});
      }
      for (const uint64_t* excl : {static_cast<const uint64_t*>(nullptr),
                                   exclude.data()}) {
        for (uint64_t last_mask : {~uint64_t{0}, partial}) {
          std::vector<uint64_t> naive(n);
          uint64_t naive_count = 0;
          for (size_t i = 0; i < n; ++i) {
            uint64_t w = 0;
            for (const Term& t : terms) {
              w |= NaiveTermWord(t.kind, (*t.a)[i], (*t.b)[i]);
            }
            if (excl != nullptr) w &= ~excl[i];
            if (i + 1 == n) w &= last_mask;
            naive[i] = w;
            naive_count += static_cast<uint64_t>(__builtin_popcountll(w));
          }
          for (Tier t : SupportedTiers()) {
            const Ops& ops = *kernels::OpsForTier(t);
            std::vector<uint64_t> got(n + kGuard, kSentinel);
            const uint64_t count =
                ops.or_terms(terms.data(), k, excl, last_mask, got.data(), n);
            const std::vector<uint64_t> stored(got.begin(), got.begin() + n);
            EXPECT_EQ(stored, naive)
                << "or_terms tier=" << kernels::TierName(t) << " k=" << k
                << " n=" << n << " exclude=" << (excl != nullptr)
                << " last_mask=" << last_mask;
            EXPECT_EQ(count, naive_count)
                << "or_terms count tier=" << kernels::TierName(t)
                << " k=" << k << " n=" << n;
            for (size_t i = n; i < n + kGuard; ++i) {
              EXPECT_EQ(got[i], kSentinel)
                  << "or_terms wrote past n tier=" << kernels::TierName(t)
                  << " n=" << n;
            }
            EXPECT_EQ(ops.or_terms(terms.data(), k, excl, last_mask, nullptr,
                                   n),
                      naive_count)
                << "or_terms count-only tier=" << kernels::TierName(t)
                << " k=" << k << " n=" << n;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bitvector layer: trailing-bit invariant and cross-tier equality.
// ---------------------------------------------------------------------------

// The bit sizes from the issue's checklist, verbatim.
const uint64_t kBitSizes[] = {0, 1, 63, 64, 65, 511 * 64, 513 * 64};

Bitvector RandomBitvector(uint64_t bits, double density, Rng* rng) {
  Bitvector bv(bits);
  for (uint64_t i = 0; i < bits; ++i) {
    if (rng->Bernoulli(density)) bv.Set(i);
  }
  return bv;
}

void ExpectTrailingClear(const Bitvector& bv, const char* label) {
  const uint64_t tail = bv.size() & 63;
  if (tail == 0 || bv.words().empty()) return;
  EXPECT_EQ(bv.words().back() >> tail, 0u)
      << label << " size=" << bv.size()
      << " tier=" << kernels::TierName(kernels::ActiveTier());
}

TEST(SimdKernelsOracle, BitvectorOpsBitIdenticalAcrossTiers) {
  Rng rng(1005);
  for (uint64_t bits : kBitSizes) {
    const Bitvector a = RandomBitvector(bits, 0.4, &rng);
    const Bitvector b = RandomBitvector(bits, 0.1, &rng);

    // Scalar-tier reference results.
    Bitvector want_and;
    Bitvector want_not;
    uint64_t want_count = 0;
    {
      TierGuard g(Tier::kScalar);
      want_and = a;
      want_and.AndWith(b);
      want_not = Bitvector::Not(a);
      want_count = a.Count();
    }

    for (Tier t : VectorTiers()) {
      TierGuard g(t);
      Bitvector got = a;
      got.AndWith(b);
      EXPECT_EQ(got, want_and) << "AndWith bits=" << bits;
      got = a;
      got.OrWith(b);
      got.XorWith(b);
      got.AndNotWith(b);
      // OrWith/XorWith/AndNotWith round-trip: (a|b)^b & ~b == a & ~b.
      Bitvector ref = a;
      {
        TierGuard s(Tier::kScalar);
        ref.OrWith(b);
        ref.XorWith(b);
        ref.AndNotWith(b);
      }
      EXPECT_EQ(got, ref) << "Or/Xor/AndNot chain bits=" << bits;
      Bitvector self_not = a;
      self_not.NotSelf();
      EXPECT_EQ(self_not, want_not) << "NotSelf bits=" << bits;
      ExpectTrailingClear(self_not, "NotSelf");
      EXPECT_EQ(a.Count(), want_count) << "Count bits=" << bits;
    }
  }
}

TEST(SimdKernelsOracle, TrailingBitsStayClearAfterEverySimdStorePath) {
  Rng rng(1006);
  for (Tier t : SupportedTiers()) {
    TierGuard g(t);
    for (uint64_t bits : kBitSizes) {
      Bitvector all = Bitvector::AllOnes(bits);
      ExpectTrailingClear(all, "AllOnes");
      Bitvector inv = all;
      inv.NotSelf();
      ExpectTrailingClear(inv, "Not(AllOnes)");
      EXPECT_EQ(inv.Count(), 0u) << "Not(AllOnes) bits=" << bits;
      const Bitvector r = RandomBitvector(bits, 0.5, &rng);
      const Bitvector n = Bitvector::Not(r);
      ExpectTrailingClear(n, "Not(random)");
      EXPECT_EQ(n.Count() + r.Count(), bits) << "complement count";
    }
  }
}

// ---------------------------------------------------------------------------
// Query-level sweep: all 7 encodings x all 4 codecs x every tier.
// ---------------------------------------------------------------------------

// A column large enough that bitmaps span multiple words and codecs have
// real structure to compress, small enough to sweep exhaustively.
struct SweepIndex {
  uint64_t rows;
  uint32_t c;
  std::vector<uint32_t> values;          // row -> value
  std::vector<Bitvector> bitmaps;        // slot -> bitmap

  SweepIndex(const EncodingScheme& scheme, uint32_t cardinality,
             uint64_t row_count, uint64_t seed)
      : rows(row_count), c(cardinality) {
    Rng rng(seed);
    values.reserve(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      // Clustered values (runs) so BBC/WAH/Roaring all compress.
      const uint32_t v = static_cast<uint32_t>(
          (r / 97 + rng.UniformInt(0, 2)) % c);
      values.push_back(v);
    }
    bitmaps.assign(scheme.NumBitmaps(c), Bitvector(rows));
    std::vector<uint32_t> slots;
    for (uint64_t r = 0; r < rows; ++r) {
      slots.clear();
      scheme.SlotsForValue(c, values[r], &slots);
      for (uint32_t s : slots) bitmaps[s].Set(r);
    }
  }

  Bitvector Naive(uint32_t lo, uint32_t hi) const {
    Bitvector bv(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      if (values[r] >= lo && values[r] <= hi) bv.Set(r);
    }
    return bv;
  }
};

TEST(SimdKernelsOracle, QuerySweepAllEncodingsCodecsTiers) {
  constexpr uint32_t kCardinality = 18;
  constexpr uint64_t kRows = 20'000;
  const std::vector<std::pair<uint32_t, uint32_t>> queries = {
      {0, 0}, {0, 8}, {3, 3}, {3, 11}, {9, 17}, {17, 17}, {0, 17}};
  for (EncodingKind kind : AllEncodingKinds()) {
    const EncodingScheme& scheme = GetEncoding(kind);
    const SweepIndex idx(scheme, kCardinality, kRows, 42);
    for (int codec_raw = 0; codec_raw < kNumCodecs; ++codec_raw) {
      const CodecId codec_id = static_cast<CodecId>(codec_raw);
      const CodecInterface& codec = GetCodec(codec_id);
      // Encode once (under whatever tier is active — encoding is not a
      // kernel path under test here), decode+evaluate under every tier.
      std::vector<std::vector<uint8_t>> blobs;
      blobs.reserve(idx.bitmaps.size());
      for (const Bitvector& bv : idx.bitmaps) blobs.push_back(codec.Encode(bv));
      for (Tier t : SupportedTiers()) {
        TierGuard g(t);
        const DecodedLeafFetcher fetch = [&](BitmapKey key) {
          Result<DecodedBitmap> d =
              codec.DecodeResident(blobs[key.slot], idx.rows);
          EXPECT_TRUE(d.ok());
          return d.value();
        };
        for (const auto& [lo, hi] : queries) {
          const ExprPtr e = scheme.IntervalExpr(1, kCardinality, lo, hi);
          Bitvector got;
          EvaluateUnionBlocked({e}, idx.rows, fetch, &got);
          const Bitvector want = idx.Naive(lo, hi);
          EXPECT_EQ(got, want)
              << scheme.name() << " codec=" << codec.name()
              << " tier=" << kernels::TierName(t) << " [" << lo << "," << hi
              << "]";
          EXPECT_EQ(EvaluateUnionBlocked({e}, idx.rows, fetch, nullptr),
                    want.Count())
              << scheme.name() << " codec=" << codec.name() << " count"
              << " tier=" << kernels::TierName(t);
        }
      }
    }
  }
}

// Tier plumbing itself: detection, names, and the forced override.
TEST(SimdKernelsDispatch, TierTablesAndNames) {
  EXPECT_NE(kernels::OpsForTier(Tier::kScalar), nullptr);
  EXPECT_STREQ(kernels::TierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(kernels::TierName(Tier::kAvx2), "avx2");
  EXPECT_STREQ(kernels::TierName(Tier::kAvx512), "avx512");
  const Tier max = kernels::MaxSupportedTier();
  EXPECT_NE(kernels::OpsForTier(max), nullptr);
  // Every tier at or below max that reports a table must be selectable,
  // and the active tier must round-trip through SetActiveTier.
  const Tier before = kernels::ActiveTier();
  for (Tier t : SupportedTiers()) {
    EXPECT_TRUE(kernels::SetActiveTier(t));
    EXPECT_EQ(kernels::ActiveTier(), t);
    EXPECT_EQ(&kernels::Active(), kernels::OpsForTier(t));
  }
  EXPECT_TRUE(kernels::SetActiveTier(before));
}

}  // namespace
}  // namespace bix
