// Property tests for the WAH comparison codec: encode/decode must round-trip
// every input shape, and WAH and BBC must both stay lossless on the same
// inputs.

#include <gtest/gtest.h>

#include "compress/bbc.h"
#include "compress/wah.h"
#include "util/rng.h"

namespace bix {
namespace {

Bitvector RandomBitvector(uint64_t n, double density, Rng* rng) {
  Bitvector bv(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(density)) bv.Set(i);
  }
  return bv;
}

struct SizeDensity {
  uint64_t size;
  double density;
};

// --- WAH ---------------------------------------------------------------

class WahSweep : public ::testing::TestWithParam<SizeDensity> {};

TEST_P(WahSweep, Roundtrip) {
  const SizeDensity p = GetParam();
  Rng rng(p.size * 7 + 5);
  Bitvector a = RandomBitvector(p.size, p.density, &rng);
  WahEncoded enc = WahEncode(a);
  Result<Bitvector> dec = WahDecode(enc);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_EQ(dec.value(), a);
  EXPECT_EQ(WahDecodeUnchecked(enc), a);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WahSweep,
    ::testing::Values(SizeDensity{1, 0.5}, SizeDensity{30, 0.5},
                      SizeDensity{31, 0.9}, SizeDensity{32, 0.5},
                      SizeDensity{62, 1.0}, SizeDensity{63, 0.0},
                      SizeDensity{1000, 0.01}, SizeDensity{99'371, 0.001}));

TEST(WahTest, AllOnesUsesFills) {
  Bitvector bv = Bitvector::AllOnes(31 * 1000);
  WahEncoded enc = WahEncode(bv);
  EXPECT_LE(enc.words.size(), 2u);
  EXPECT_EQ(WahDecodeUnchecked(enc), bv);
}

TEST(WahTest, SparseCompressesWell) {
  Bitvector bv(31 * 10'000);
  bv.Set(5);
  bv.Set(31 * 9999);
  WahEncoded enc = WahEncode(bv);
  EXPECT_LE(enc.words.size(), 6u);
  EXPECT_EQ(WahDecodeUnchecked(enc), bv);
}

TEST(WahTest, DecodeRejectsOverflowingStream) {
  Bitvector bv(100);
  WahEncoded enc = WahEncode(bv);
  enc.words.push_back(0);  // extra literal group
  EXPECT_FALSE(WahDecode(enc).ok());
}

TEST(WahTest, DecodeRejectsPaddingLiteral) {
  // bit_count = 10 but the (single) literal sets bit 20.
  WahEncoded enc;
  enc.bit_count = 10;
  enc.words = {1u << 20};
  EXPECT_FALSE(WahDecode(enc).ok());
}

TEST(WahVsBbc, BothLosslessSameInputs) {
  Rng rng(21);
  for (double d : {0.001, 0.05, 0.5}) {
    Bitvector bv = RandomBitvector(80'000, d, &rng);
    EXPECT_EQ(BbcDecodeUnchecked(BbcEncode(bv)), bv);
    EXPECT_EQ(WahDecodeUnchecked(WahEncode(bv)), bv);
  }
}

TEST(WahVsBbc, BbcCompressesSparseBitmapsTighter) {
  // BBC's byte granularity beats WAH's 31-bit groups on very sparse data.
  Rng rng(22);
  Bitvector bv = RandomBitvector(1'000'000, 0.0005, &rng);
  EXPECT_LT(BbcEncode(bv).byte_size(), WahEncode(bv).byte_size());
}

}  // namespace
}  // namespace bix
